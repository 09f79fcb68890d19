//! The human-in-the-loop review queue behind `GET /v1/reviews` and
//! `POST /v1/reviews/{id}/{accept,reject}`.
//!
//! A clean whose [`CleanerConfig::confidence_threshold`] withheld repairs
//! (see `cocoon_core::CleaningRun::pending`) registers a *review run* here:
//! the materialised table (every auto-applied repair already in) plus one
//! review item per withheld op. Reviewers list the queue, then accept or
//! reject items:
//!
//! * **accept** applies the op's SQL to the run's *current* table — chained
//!   accepts compose, so accepting every withheld repair of a run
//!   reproduces the table an unconditional (threshold 0.0) clean would
//!   have produced. Accepting twice is idempotent: the second accept
//!   replays the recorded outcome without re-applying anything.
//! * **reject** retires the item. Rejecting twice is idempotent; rejecting
//!   an accepted item (or accepting a rejected one) is a conflict — the
//!   caller maps it to 409.
//!
//! Review runs are bounded like finished jobs: a retention cap evicts the
//! oldest beyond [`MAX_REVIEW_RUNS`], an optional TTL expires them, and
//! `DELETE /v1/jobs/{id}` drops the run registered by that job — after any
//! of these, the run's item ids answer 404, exactly like never-issued ids.
//!
//! [`CleanerConfig::confidence_threshold`]: cocoon_core::CleanerConfig

use cocoon_core::{apply_and_count, CleaningOp, CleaningRun};
use cocoon_table::{csv, Table};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Review runs retained at once; beyond this the oldest run (and its
/// items) is evicted.
pub const MAX_REVIEW_RUNS: usize = 64;

/// Lifecycle of one review item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReviewStatus {
    /// Waiting for a reviewer.
    Pending,
    /// Accepted; its SQL has been applied to the run's table.
    Accepted,
    /// Rejected; its SQL will never be applied.
    Rejected,
}

impl ReviewStatus {
    /// The wire label (`"pending"` / `"accepted"` / `"rejected"`).
    pub fn label(&self) -> &'static str {
        match self {
            ReviewStatus::Pending => "pending",
            ReviewStatus::Accepted => "accepted",
            ReviewStatus::Rejected => "rejected",
        }
    }
}

/// What `GET /v1/reviews` shows for one item.
#[derive(Debug, Clone)]
pub struct ReviewView {
    /// The item's id.
    pub id: u64,
    /// The job that produced it, if the clean ran through the job queue.
    pub job_id: Option<u64>,
    /// Where the item stands.
    pub status: ReviewStatus,
    /// Issue-type name of the withheld repair.
    pub issue: &'static str,
    /// Column the repair targets (`None` = whole table).
    pub column: Option<String>,
    /// Blended confidence score that fell below the threshold.
    pub confidence: f64,
    /// Human-readable confidence breakdown (self-report + agreement).
    pub confidence_detail: String,
    /// Statistical evidence behind the repair.
    pub evidence: String,
    /// The model's reasoning.
    pub reasoning: String,
    /// The repair's commented SQL.
    pub sql: String,
}

/// What an accept did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// The repair was applied (now, or on a previous accept — idempotent):
    /// `cells_changed` cells differ, `csv` is the run's current table.
    Applied {
        /// Cells the repair changed when it was applied.
        cells_changed: usize,
        /// The run's re-materialised table, as CSV.
        csv: String,
    },
    /// The item was rejected earlier; accepting it now is a conflict.
    Conflict,
    /// No such item (never issued, expired, evicted, or its job was
    /// deleted).
    NotFound,
    /// Applying the SQL failed (the caller maps this to 500).
    Failed(String),
}

/// What a reject did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectOutcome {
    /// The item is rejected (now, or already was — idempotent).
    Rejected,
    /// The item was accepted earlier; rejecting it now is a conflict.
    Conflict,
    /// No such item.
    NotFound,
}

/// Aggregate counts for the metrics endpoint. Status counts are a live
/// census; `dropped` is cumulative (evicted + expired + job-deleted runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReviewCounts {
    /// Items currently waiting for a reviewer.
    pub pending: usize,
    /// Accepted items currently retained.
    pub accepted: usize,
    /// Rejected items currently retained.
    pub rejected: usize,
    /// Review runs removed since startup (eviction, TTL, job deletion).
    pub dropped: usize,
}

struct ReviewItem {
    run: u64,
    op: CleaningOp,
    status: ReviewStatus,
    /// Cells changed when the accept applied the op (recorded so a second
    /// accept can replay the outcome).
    applied_changes: usize,
}

struct RunEntry {
    /// The run's current table: the clean's output, plus every accepted
    /// repair applied so far.
    table: Table,
    items: Vec<u64>,
    job_id: Option<u64>,
    created: Instant,
}

struct Inner {
    items: HashMap<u64, ReviewItem>,
    runs: HashMap<u64, RunEntry>,
    /// Runs in registration order, for retention eviction and TTL sweeps.
    order: VecDeque<u64>,
    next_item: u64,
    next_run: u64,
    dropped: usize,
}

/// Thread-safe store of review runs and their items.
pub struct ReviewStore {
    inner: Mutex<Inner>,
    /// Review runs older than this expire on the lazy sweep (`None` =
    /// retention cap only).
    ttl: Option<Duration>,
}

impl Default for ReviewStore {
    fn default() -> Self {
        ReviewStore::new()
    }
}

impl ReviewStore {
    /// A store with no TTL.
    pub fn new() -> Self {
        Self::with_ttl(None)
    }

    /// A store whose review runs additionally expire `ttl` after
    /// registration (`None` = never).
    pub fn with_ttl(ttl: Option<Duration>) -> Self {
        ReviewStore {
            inner: Mutex::new(Inner {
                items: HashMap::new(),
                runs: HashMap::new(),
                order: VecDeque::new(),
                next_item: 1,
                next_run: 1,
                dropped: 0,
            }),
            ttl,
        }
    }

    /// The store's lock, recovered if a panic poisoned it. A panic under
    /// the lock can only come from `accept`'s SQL apply or CSV write, and
    /// `accept` mutates the store only once both have returned, so the
    /// store a panic leaves behind is consistent and keeps serving.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn remove_run(inner: &mut Inner, run_id: u64) {
        if let Some(entry) = inner.runs.remove(&run_id) {
            for item in entry.items {
                inner.items.remove(&item);
            }
            inner.order.retain(|id| *id != run_id);
            inner.dropped += 1;
        }
    }

    /// Expires runs older than the TTL; `order` is registration order, so
    /// the sweep stops at the first survivor.
    fn sweep(ttl: Option<Duration>, inner: &mut Inner) {
        let Some(ttl) = ttl else { return };
        let now = Instant::now();
        while let Some(&run_id) = inner.order.front() {
            let Some(entry) = inner.runs.get(&run_id) else {
                inner.order.pop_front();
                continue;
            };
            if now.duration_since(entry.created) < ttl {
                break;
            }
            Self::remove_run(inner, run_id);
        }
    }

    /// Registers a finished run's withheld repairs for review. Returns the
    /// new item ids, aligned with `run.pending` order — empty when nothing
    /// was withheld (no run entry is created then).
    pub fn register(&self, run: &CleaningRun, job_id: Option<u64>) -> Vec<u64> {
        if run.pending.is_empty() {
            return Vec::new();
        }
        let mut inner = self.lock();
        Self::sweep(self.ttl, &mut inner);
        let run_id = inner.next_run;
        inner.next_run += 1;
        let mut ids = Vec::with_capacity(run.pending.len());
        for op in &run.pending {
            let id = inner.next_item;
            inner.next_item += 1;
            inner.items.insert(
                id,
                ReviewItem {
                    run: run_id,
                    op: op.clone(),
                    status: ReviewStatus::Pending,
                    applied_changes: 0,
                },
            );
            ids.push(id);
        }
        inner.runs.insert(
            run_id,
            RunEntry {
                table: run.table.clone(),
                items: ids.clone(),
                job_id,
                created: Instant::now(),
            },
        );
        inner.order.push_back(run_id);
        while inner.order.len() > MAX_REVIEW_RUNS {
            let oldest = *inner.order.front().expect("non-empty");
            Self::remove_run(&mut inner, oldest);
        }
        ids
    }

    /// Every retained item, in id order.
    pub fn list(&self) -> Vec<ReviewView> {
        let mut inner = self.lock();
        Self::sweep(self.ttl, &mut inner);
        let mut views: Vec<ReviewView> = inner
            .items
            .iter()
            .map(|(&id, item)| {
                let job_id = inner.runs.get(&item.run).and_then(|r| r.job_id);
                ReviewView {
                    id,
                    job_id,
                    status: item.status,
                    issue: item.op.issue.name(),
                    column: item.op.column.clone(),
                    confidence: item.op.confidence.score(),
                    confidence_detail: item.op.confidence.describe(),
                    evidence: item.op.statistical_evidence.clone(),
                    reasoning: item.op.llm_reasoning.clone(),
                    sql: item.op.rendered_sql(),
                }
            })
            .collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Accepts an item: applies its SQL to the run's current table (first
    /// accept) or replays the recorded outcome (repeat accepts).
    pub fn accept(&self, id: u64) -> AcceptOutcome {
        let mut inner = self.lock();
        Self::sweep(self.ttl, &mut inner);
        let Some(item) = inner.items.get(&id) else { return AcceptOutcome::NotFound };
        let run_id = item.run;
        match item.status {
            ReviewStatus::Rejected => AcceptOutcome::Conflict,
            ReviewStatus::Accepted => {
                let cells_changed = item.applied_changes;
                let Some(entry) = inner.runs.get(&run_id) else { return AcceptOutcome::NotFound };
                AcceptOutcome::Applied { cells_changed, csv: csv::write_str(&entry.table) }
            }
            ReviewStatus::Pending => {
                let select = item.op.sql.clone();
                let Some(entry) = inner.runs.get_mut(&run_id) else {
                    return AcceptOutcome::NotFound;
                };
                match apply_and_count(&select, &entry.table) {
                    Ok((table, cells_changed)) => {
                        // Written before anything changes, so a panic in the
                        // writer leaves the store as it was.
                        let body = csv::write_str(&table);
                        entry.table = table;
                        let item = inner.items.get_mut(&id).expect("item still present");
                        item.status = ReviewStatus::Accepted;
                        item.applied_changes = cells_changed;
                        AcceptOutcome::Applied { cells_changed, csv: body }
                    }
                    Err(e) => AcceptOutcome::Failed(format!("applying repair {id}: {e}")),
                }
            }
        }
    }

    /// Rejects an item (idempotent on repeats; conflict after an accept).
    pub fn reject(&self, id: u64) -> RejectOutcome {
        let mut inner = self.lock();
        Self::sweep(self.ttl, &mut inner);
        let Some(item) = inner.items.get_mut(&id) else { return RejectOutcome::NotFound };
        match item.status {
            ReviewStatus::Accepted => RejectOutcome::Conflict,
            ReviewStatus::Rejected | ReviewStatus::Pending => {
                item.status = ReviewStatus::Rejected;
                RejectOutcome::Rejected
            }
        }
    }

    /// Drops the review runs registered by `job_id` (the `DELETE
    /// /v1/jobs/{id}` hook). Their item ids answer NotFound afterwards.
    /// Returns how many runs were dropped.
    pub fn drop_job(&self, job_id: u64) -> usize {
        let mut inner = self.lock();
        let doomed: Vec<u64> = inner
            .runs
            .iter()
            .filter(|(_, entry)| entry.job_id == Some(job_id))
            .map(|(&id, _)| id)
            .collect();
        for run_id in &doomed {
            Self::remove_run(&mut inner, *run_id);
        }
        doomed.len()
    }

    /// Aggregate counts for the metrics endpoint.
    pub fn counts(&self) -> ReviewCounts {
        let mut inner = self.lock();
        Self::sweep(self.ttl, &mut inner);
        let mut counts = ReviewCounts { dropped: inner.dropped, ..ReviewCounts::default() };
        for item in inner.items.values() {
            match item.status {
                ReviewStatus::Pending => counts.pending += 1,
                ReviewStatus::Accepted => counts.accepted += 1,
                ReviewStatus::Rejected => counts.rejected += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_core::{Cleaner, CleanerConfig, IssueKind};
    use cocoon_llm::SimLlm;
    use cocoon_table::Table;

    /// A run with exactly one withheld repair: the misplaced-concept value
    /// ("Hindi" in a country column) self-reports low confidence, so a
    /// strict threshold queues it while the typo repair auto-applies.
    fn withheld_run() -> CleaningRun {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for _ in 0..50 {
            rows.push(vec!["coffee".into(), "USA".into()]);
        }
        for _ in 0..10 {
            rows.push(vec!["tea".into(), "India".into()]);
        }
        rows.push(vec!["cofffee".into(), "Hindi".into()]);
        let table = Table::from_text_rows(&["drink", "country"], &rows).unwrap();
        let config = CleanerConfig {
            confidence_threshold: 0.9,
            ..CleanerConfig::only_issue(IssueKind::StringOutliers)
        };
        let run = Cleaner::with_config(SimLlm::new(), config).unwrap().clean(&table).unwrap();
        assert_eq!(run.pending.len(), 1, "the misplaced value is withheld");
        run
    }

    #[test]
    fn register_list_accept_lifecycle() {
        let store = ReviewStore::new();
        let run = withheld_run();
        let ids = store.register(&run, None);
        assert_eq!(ids.len(), 1);

        let listed = store.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].status, ReviewStatus::Pending);
        assert_eq!(listed[0].issue, "String Outliers");
        assert!(listed[0].confidence < 0.9);
        assert!(listed[0].sql.contains("SELECT"));

        let AcceptOutcome::Applied { cells_changed, csv } = store.accept(ids[0]) else {
            panic!("accept applies");
        };
        assert!(cells_changed > 0);
        assert!(!csv.contains("Hindi"), "the withheld repair is applied now");
        assert_eq!(store.counts(), ReviewCounts { accepted: 1, ..Default::default() });
    }

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_store_down() {
        let store = ReviewStore::new();
        let ids = store.register(&withheld_run(), None);
        let second = store.register(&withheld_run(), None);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = store.lock();
                panic!("a panic while the review lock is held");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(store.inner.is_poisoned());
        assert_eq!(store.list().len(), 2);
        assert!(matches!(store.accept(ids[0]), AcceptOutcome::Applied { .. }));
        assert_eq!(store.reject(second[0]), RejectOutcome::Rejected);
        assert_eq!(store.counts(), ReviewCounts { accepted: 1, rejected: 1, ..Default::default() });
    }

    #[test]
    fn double_accept_is_idempotent() {
        let store = ReviewStore::new();
        let ids = store.register(&withheld_run(), None);
        let first = store.accept(ids[0]);
        let second = store.accept(ids[0]);
        assert_eq!(first, second, "repeat accept replays the same outcome");
        assert_eq!(store.counts().accepted, 1);
    }

    #[test]
    fn reject_then_accept_conflicts_both_ways() {
        let store = ReviewStore::new();
        let run = withheld_run();

        let ids = store.register(&run, None);
        assert_eq!(store.reject(ids[0]), RejectOutcome::Rejected);
        assert_eq!(store.reject(ids[0]), RejectOutcome::Rejected, "repeat reject is idempotent");
        assert_eq!(store.accept(ids[0]), AcceptOutcome::Conflict, "accept after reject conflicts");

        let ids = store.register(&run, None);
        store.accept(ids[0]);
        assert_eq!(store.reject(ids[0]), RejectOutcome::Conflict, "reject after accept conflicts");
    }

    #[test]
    fn unknown_ids_are_not_found() {
        let store = ReviewStore::new();
        assert_eq!(store.accept(42), AcceptOutcome::NotFound);
        assert_eq!(store.reject(42), RejectOutcome::NotFound);
        assert!(store.list().is_empty());
    }

    #[test]
    fn empty_pending_registers_nothing() {
        let mut run = withheld_run();
        run.pending.clear();
        let store = ReviewStore::new();
        assert!(store.register(&run, None).is_empty());
        assert!(store.list().is_empty());
        assert_eq!(store.counts(), ReviewCounts::default());
    }

    #[test]
    fn job_deletion_drops_the_run_cleanly() {
        let store = ReviewStore::new();
        let run = withheld_run();
        let kept = store.register(&run, Some(7))[0];
        let doomed = store.register(&run, Some(8))[0];
        assert_eq!(store.drop_job(8), 1);
        // The deleted job's item is gone; racing accept/reject answer
        // NotFound instead of panicking or corrupting the store.
        assert_eq!(store.accept(doomed), AcceptOutcome::NotFound);
        assert_eq!(store.reject(doomed), RejectOutcome::NotFound);
        // The other job's item is untouched and still accepts.
        assert!(matches!(store.accept(kept), AcceptOutcome::Applied { .. }));
        assert_eq!(store.counts().dropped, 1);
    }

    #[test]
    fn expired_runs_answer_not_found() {
        let store = ReviewStore::with_ttl(Some(Duration::from_millis(20)));
        let id = store.register(&withheld_run(), Some(3))[0];
        assert_eq!(store.list().len(), 1);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(store.accept(id), AcceptOutcome::NotFound, "expired review is gone");
        assert!(store.list().is_empty());
        assert_eq!(store.counts().dropped, 1);
    }

    #[test]
    fn retention_cap_evicts_the_oldest_run() {
        let store = ReviewStore::new();
        let run = withheld_run();
        let first = store.register(&run, None)[0];
        for _ in 0..MAX_REVIEW_RUNS {
            store.register(&run, None);
        }
        assert_eq!(store.accept(first), AcceptOutcome::NotFound, "oldest run evicted");
        assert_eq!(store.counts().pending, MAX_REVIEW_RUNS);
    }

    #[test]
    fn concurrent_accepts_of_one_item_agree() {
        let store = ReviewStore::new();
        let id = store.register(&withheld_run(), None)[0];
        let outcomes: Vec<AcceptOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| store.accept(id))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every racer sees the same applied outcome; the op ran once.
        assert!(outcomes.iter().all(|o| o == &outcomes[0]));
        assert!(matches!(outcomes[0], AcceptOutcome::Applied { .. }));
        assert_eq!(store.counts().accepted, 1);
    }
}
