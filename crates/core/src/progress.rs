//! Run-progress snapshots for polling a clean that executes elsewhere.
//!
//! The paper's hosted deployment is interactive: a user submits a table and
//! watches the pipeline work through its stages. [`RunProgress`] is the
//! observation channel that makes that possible without coupling the
//! pipeline to any transport — the cleaning thread updates it between
//! stages, and any number of observers (a job-poll endpoint, a TUI) read
//! consistent [`ProgressSnapshot`]s concurrently.
//!
//! All methods take `&self`; the struct is `Send + Sync` and designed to
//! live in an `Arc` shared between the worker running
//! [`Cleaner::clean_with_progress`](crate::Cleaner::clean_with_progress)
//! and its observers.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock timings of one finished pipeline stage, as delivered to a
/// [`StageObserver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name ([`IssueKind::name`](crate::IssueKind::name)).
    pub stage: &'static str,
    /// Total wall time of the stage (detect fan-out + decide/apply).
    pub total: Duration,
    /// Wall time of the concurrent detect fan-out within the stage; the
    /// sequential decide/apply phase is `total - detect`.
    pub detect: Duration,
    /// Cumulative operations applied once the stage finished.
    pub ops_applied: usize,
}

/// Observer of per-stage wall-clock cost, fired at each stage boundary by
/// the cleaning thread. Attach one with [`RunProgress::set_observer`] and
/// pass the progress to [`Cleaner::clean_with_progress`](crate::Cleaner::clean_with_progress)
/// or [`Cleaner::clean_observed`](crate::Cleaner::clean_observed) — library
/// users then see exactly the timings `cocoon-server` exports in its
/// `latency` metrics.
///
/// Implementations must be `Send + Sync`: the callback runs on whichever
/// thread executes the clean.
pub trait StageObserver: Send + Sync {
    /// Called once per enabled stage, after its decide phase completes.
    fn stage_finished(&self, timing: StageTiming);
}

/// Shared, thread-safe progress state of one cleaning run.
#[derive(Default)]
pub struct RunProgress {
    total_stages: AtomicUsize,
    completed_stages: AtomicUsize,
    ops_applied: AtomicUsize,
    finished: AtomicBool,
    current_stage: Mutex<Option<&'static str>>,
    stage_started: Mutex<Option<Instant>>,
    detect_ns: AtomicU64,
    observer: Mutex<Option<Arc<dyn StageObserver>>>,
}

impl std::fmt::Debug for RunProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunProgress")
            .field("snapshot", &self.snapshot())
            .field("has_observer", &self.observer.lock().expect("progress lock").is_some())
            .finish()
    }
}

/// One consistent observation of a [`RunProgress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Stages this run will execute (enabled issues only).
    pub total_stages: usize,
    /// Stages fully finished so far.
    pub completed_stages: usize,
    /// Operations applied so far (updated at stage boundaries).
    pub ops_applied: usize,
    /// Name of the stage currently executing, if any.
    pub current_stage: Option<&'static str>,
    /// True once the run has produced its `CleaningRun`.
    pub finished: bool,
}

impl RunProgress {
    /// A progress tracker with nothing started yet.
    pub fn new() -> Self {
        RunProgress::default()
    }

    /// Attaches a stage-timing observer; replaces any previous one. The
    /// observer is fired from the cleaning thread at each stage boundary.
    pub fn set_observer(&self, observer: Arc<dyn StageObserver>) {
        *self.observer.lock().expect("progress lock") = Some(observer);
    }

    /// Called once when the run starts, with the number of enabled stages.
    pub(crate) fn begin(&self, total_stages: usize) {
        self.total_stages.store(total_stages, Ordering::Relaxed);
        self.completed_stages.store(0, Ordering::Relaxed);
        self.ops_applied.store(0, Ordering::Relaxed);
        self.finished.store(false, Ordering::Relaxed);
        *self.current_stage.lock().expect("progress lock") = None;
        *self.stage_started.lock().expect("progress lock") = None;
        self.detect_ns.store(0, Ordering::Relaxed);
    }

    pub(crate) fn start_stage(&self, name: &'static str) {
        *self.current_stage.lock().expect("progress lock") = Some(name);
        *self.stage_started.lock().expect("progress lock") = Some(Instant::now());
        self.detect_ns.store(0, Ordering::Relaxed);
    }

    /// Detect fan-outs report their wall time here; accumulated per stage
    /// and reset by [`RunProgress::start_stage`].
    pub(crate) fn add_detect_time(&self, elapsed: Duration) {
        self.detect_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn finish_stage(&self, ops_applied: usize) {
        self.ops_applied.store(ops_applied, Ordering::Relaxed);
        self.completed_stages.fetch_add(1, Ordering::Relaxed);
        let stage = self.current_stage.lock().expect("progress lock").take();
        let started = self.stage_started.lock().expect("progress lock").take();
        let observer = self.observer.lock().expect("progress lock").clone();
        if let (Some(stage), Some(started), Some(observer)) = (stage, started, observer) {
            let total = started.elapsed();
            let detect = Duration::from_nanos(self.detect_ns.load(Ordering::Relaxed)).min(total);
            observer.stage_finished(StageTiming { stage, total, detect, ops_applied });
        }
    }

    pub(crate) fn finish(&self, ops_applied: usize) {
        self.ops_applied.store(ops_applied, Ordering::Relaxed);
        *self.current_stage.lock().expect("progress lock") = None;
        self.finished.store(true, Ordering::Relaxed);
    }

    /// A consistent-enough view for polling: counters are read relaxed, so
    /// a snapshot racing a stage boundary may be one update stale — never
    /// torn.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            total_stages: self.total_stages.load(Ordering::Relaxed),
            completed_stages: self.completed_stages.load(Ordering::Relaxed),
            ops_applied: self.ops_applied.load(Ordering::Relaxed),
            current_stage: *self.current_stage.lock().expect("progress lock"),
            finished: self.finished.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_updates_snapshot() {
        let p = RunProgress::new();
        assert_eq!(p.snapshot().total_stages, 0);
        p.begin(3);
        let s = p.snapshot();
        assert_eq!((s.total_stages, s.completed_stages, s.finished), (3, 0, false));
        p.start_stage("String Outliers");
        assert_eq!(p.snapshot().current_stage, Some("String Outliers"));
        p.finish_stage(2);
        let s = p.snapshot();
        assert_eq!((s.completed_stages, s.ops_applied, s.current_stage), (1, 2, None));
        p.finish(5);
        let s = p.snapshot();
        assert!(s.finished);
        assert_eq!(s.ops_applied, 5);
    }

    #[test]
    fn begin_resets_a_reused_progress() {
        let p = RunProgress::new();
        p.begin(2);
        p.start_stage("x");
        p.finish_stage(1);
        p.finish(1);
        p.begin(4);
        let s = p.snapshot();
        assert_eq!((s.total_stages, s.completed_stages, s.ops_applied), (4, 0, 0));
        assert!(!s.finished);
    }

    #[test]
    fn observer_sees_each_stage_with_consistent_timings() {
        struct Collect(Mutex<Vec<StageTiming>>);
        impl StageObserver for Collect {
            fn stage_finished(&self, timing: StageTiming) {
                self.0.lock().unwrap().push(timing);
            }
        }
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        let p = RunProgress::new();
        p.set_observer(collect.clone());
        p.begin(2);
        p.start_stage("alpha");
        p.add_detect_time(Duration::from_micros(5));
        std::thread::sleep(Duration::from_millis(1));
        p.finish_stage(1);
        p.start_stage("beta");
        p.finish_stage(3);
        p.finish(3);
        let events = collect.0.lock().unwrap().clone();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, "alpha");
        assert!(events[0].total >= Duration::from_millis(1));
        assert_eq!(events[0].detect, Duration::from_micros(5));
        assert!(events[0].detect <= events[0].total);
        assert_eq!(events[0].ops_applied, 1);
        assert_eq!(events[1].stage, "beta");
        // Detect accumulator resets between stages.
        assert_eq!(events[1].detect, Duration::ZERO);
        assert_eq!(events[1].ops_applied, 3);
    }

    #[test]
    fn stage_timing_without_observer_is_a_no_op() {
        let p = RunProgress::new();
        p.begin(1);
        p.start_stage("solo");
        p.finish_stage(0);
        assert_eq!(p.snapshot().completed_stages, 1);
    }

    #[test]
    fn concurrent_observation_is_safe() {
        let p = std::sync::Arc::new(RunProgress::new());
        p.begin(8);
        std::thread::scope(|s| {
            let worker = p.clone();
            s.spawn(move || {
                for _ in 0..8 {
                    worker.start_stage("stage");
                    worker.finish_stage(0);
                }
                worker.finish(0);
            });
            let observer = p.clone();
            s.spawn(move || loop {
                let snap = observer.snapshot();
                assert!(snap.completed_stages <= snap.total_stages);
                if snap.finished {
                    break;
                }
            });
        });
        assert_eq!(p.snapshot().completed_stages, 8);
    }
}
