//! The asynchronous job store behind `POST /v1/jobs` / `GET /v1/jobs/{id}`
//! / `DELETE /v1/jobs/{id}`.
//!
//! Submissions enter a FIFO queue; dedicated job-worker threads pop them,
//! run the clean, and publish the result. Pollers read a [`JobView`]:
//! status, a live [`ProgressSnapshot`] (stage-by-stage, via
//! [`cocoon_core::RunProgress`]), and — once done — the same response body
//! a synchronous `/v1/clean` would have returned.
//!
//! Finished jobs are bounded two ways, because each Done entry retains its
//! full response body and a long-lived server would otherwise grow without
//! limit: a retention cap ([`MAX_FINISHED_JOBS`]) evicts the oldest beyond
//! a count, and an optional TTL expires them beyond an age (swept lazily on
//! every store operation — no dedicated sweeper thread). Clients that are
//! done polling can free an entry immediately with
//! [`delete`](JobStore::delete), which also cancels still-queued jobs.
//!
//! The store is payload-generic so it can be unit-tested without building
//! tables; the server instantiates it with its parsed clean payload.

use cocoon_core::{ProgressSnapshot, RunProgress};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue for a worker.
    Queued,
    /// A worker is cleaning it.
    Running,
    /// Finished; the response body is ready to poll.
    Done,
    /// The clean failed; the error text is ready to poll.
    Failed,
}

impl JobStatus {
    /// The wire label (`"queued"` / `"running"` / `"done"` / `"failed"`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// What a poller sees.
#[derive(Debug, Clone)]
pub struct JobView {
    /// The job's id.
    pub id: u64,
    /// Where the job stands.
    pub status: JobStatus,
    /// Live stage-by-stage progress.
    pub progress: ProgressSnapshot,
    /// The finished response body (status `Done` only), shared with the
    /// store and every other view of the job.
    pub result: Option<Arc<str>>,
    /// What went wrong (status `Failed` only).
    pub error: Option<String>,
}

/// What `DELETE /v1/jobs/{id}` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The job was removed (a queued job is cancelled, a finished one
    /// freed).
    Deleted,
    /// The job is mid-clean and cannot be removed — poll until it
    /// finishes, then delete.
    Running,
    /// No such job (never submitted, already deleted, evicted or expired).
    NotFound,
}

/// Aggregate counts for the metrics endpoint. Status counts are a live
/// census; `expired`/`deleted` are cumulative since startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounts {
    /// Jobs currently waiting in the queue.
    pub queued: usize,
    /// Jobs currently being cleaned.
    pub running: usize,
    /// Finished jobs currently retained for polling.
    pub done: usize,
    /// Failed jobs currently retained for polling.
    pub failed: usize,
    /// Finished jobs removed by the TTL sweep since startup.
    pub expired: usize,
    /// Jobs removed by `DELETE /v1/jobs/{id}` since startup.
    pub deleted: usize,
}

struct JobEntry {
    status: JobStatus,
    progress: Arc<RunProgress>,
    /// Stored at its exact length, whatever capacity the rendered body had.
    result: Option<Arc<str>>,
    error: Option<String>,
}

/// Finished jobs retained for polling. A long-lived server sees unbounded
/// submissions, and every Done entry keeps its full response body; beyond
/// this many finished jobs the oldest are evicted (their ids then poll as
/// 404, like never-submitted ids).
pub const MAX_FINISHED_JOBS: usize = 256;

/// Jobs allowed to wait in the queue at once; submissions beyond this are
/// refused (429) instead of buffering parsed tables without bound.
pub const MAX_QUEUED_JOBS: usize = 64;

struct Inner<P> {
    jobs: HashMap<u64, JobEntry>,
    queue: VecDeque<(u64, P)>,
    /// Finished (id, finished-at) pairs in completion order, for retention
    /// eviction and the TTL sweep.
    finished: VecDeque<(u64, Instant)>,
    next_id: u64,
    expired: usize,
    deleted: usize,
}

/// Thread-safe FIFO job store; `P` is the parsed work payload.
pub struct JobStore<P> {
    inner: Mutex<Inner<P>>,
    arrival: Condvar,
    /// Finished jobs older than this are expired by the lazy sweep;
    /// `None` disables the sweep (retention cap only).
    ttl: Option<Duration>,
}

impl<P> Default for JobStore<P> {
    fn default() -> Self {
        JobStore::new()
    }
}

impl<P> JobStore<P> {
    /// A store with no TTL: finished jobs live until the retention cap
    /// evicts them or a `DELETE` removes them.
    pub fn new() -> Self {
        Self::with_ttl(None)
    }

    /// A store whose finished jobs additionally expire `ttl` after they
    /// finish (`None` = never).
    pub fn with_ttl(ttl: Option<Duration>) -> Self {
        JobStore {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
                next_id: 1,
                expired: 0,
                deleted: 0,
            }),
            arrival: Condvar::new(),
            ttl,
        }
    }

    /// The configured finished-job TTL, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// Removes finished jobs older than the TTL. `finished` is in
    /// completion order, so the sweep stops at the first survivor.
    fn sweep(ttl: Option<Duration>, inner: &mut Inner<P>) {
        let Some(ttl) = ttl else { return };
        let now = Instant::now();
        while let Some((id, at)) = inner.finished.front() {
            if now.duration_since(*at) < ttl {
                break;
            }
            let id = *id;
            inner.finished.pop_front();
            if inner.jobs.remove(&id).is_some() {
                inner.expired += 1;
            }
        }
    }

    /// Enqueues a job and returns its id, or `None` when the queue is at
    /// [`MAX_QUEUED_JOBS`] — queued payloads hold fully parsed tables, so
    /// an unbounded queue is a one-client memory-exhaustion vector. The
    /// caller maps `None` to 429.
    pub fn submit(&self, payload: P) -> Option<u64> {
        let mut inner = self.inner.lock().expect("job lock");
        Self::sweep(self.ttl, &mut inner);
        if inner.queue.len() >= MAX_QUEUED_JOBS {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobEntry {
                status: JobStatus::Queued,
                progress: Arc::new(RunProgress::new()),
                result: None,
                error: None,
            },
        );
        inner.queue.push_back((id, payload));
        drop(inner);
        self.arrival.notify_one();
        Some(id)
    }

    /// Blocks until a job is available (marking it `Running` and returning
    /// its payload plus the shared progress handle) or `give_up` turns
    /// true. Workers call this in a loop; `give_up` is the shutdown flag
    /// and wins over queued work, so stop() never waits for a backlog to
    /// drain (undrained jobs simply die with the process).
    pub fn next_job(&self, give_up: impl Fn() -> bool) -> Option<(u64, P, Arc<RunProgress>)> {
        let mut inner = self.inner.lock().expect("job lock");
        loop {
            if give_up() {
                return None;
            }
            if let Some((id, payload)) = inner.queue.pop_front() {
                let entry = inner.jobs.get_mut(&id).expect("queued job has an entry");
                entry.status = JobStatus::Running;
                let progress = Arc::clone(&entry.progress);
                return Some((id, payload, progress));
            }
            // Timed wait so a `give_up` flip without a notify still ends
            // the worker promptly.
            let (guard, _) =
                self.arrival.wait_timeout(inner, Duration::from_millis(50)).expect("job lock");
            inner = guard;
        }
    }

    /// Publishes a finished job's outcome, stamps its expiry clock, and
    /// evicts the oldest finished jobs beyond [`MAX_FINISHED_JOBS`]. A body
    /// is kept at its exact length and shared by every later [`JobView`].
    pub fn finish(&self, id: u64, outcome: Result<String, String>) {
        let mut inner = self.inner.lock().expect("job lock");
        Self::sweep(self.ttl, &mut inner);
        if let Some(entry) = inner.jobs.get_mut(&id) {
            match outcome {
                Ok(body) => {
                    entry.status = JobStatus::Done;
                    entry.result = Some(Arc::from(body));
                }
                Err(message) => {
                    entry.status = JobStatus::Failed;
                    entry.error = Some(message);
                }
            }
            inner.finished.push_back((id, Instant::now()));
            while inner.finished.len() > MAX_FINISHED_JOBS {
                let (evicted, _) = inner.finished.pop_front().expect("non-empty");
                inner.jobs.remove(&evicted);
            }
        }
    }

    /// A poller's view of one job.
    pub fn view(&self, id: u64) -> Option<JobView> {
        let mut inner = self.inner.lock().expect("job lock");
        Self::sweep(self.ttl, &mut inner);
        inner.jobs.get(&id).map(|entry| JobView {
            id,
            status: entry.status,
            progress: entry.progress.snapshot(),
            result: entry.result.clone(),
            error: entry.error.clone(),
        })
    }

    /// Removes a job: queued jobs are cancelled (their worker never sees
    /// them), finished jobs are freed, running jobs are refused — the
    /// worker holds the payload and will publish into the entry.
    pub fn delete(&self, id: u64) -> DeleteOutcome {
        let mut inner = self.inner.lock().expect("job lock");
        Self::sweep(self.ttl, &mut inner);
        match inner.jobs.get(&id).map(|e| e.status) {
            None => DeleteOutcome::NotFound,
            Some(JobStatus::Running) => DeleteOutcome::Running,
            Some(JobStatus::Queued) => {
                inner.queue.retain(|(qid, _)| *qid != id);
                inner.jobs.remove(&id);
                inner.deleted += 1;
                DeleteOutcome::Deleted
            }
            Some(JobStatus::Done | JobStatus::Failed) => {
                inner.finished.retain(|(fid, _)| *fid != id);
                inner.jobs.remove(&id);
                inner.deleted += 1;
                DeleteOutcome::Deleted
            }
        }
    }

    /// Jobs waiting for a worker.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("job lock").queue.len()
    }

    /// Aggregate counts for the metrics endpoint (sweeping first, so the
    /// census never reports entries the TTL has already claimed).
    pub fn counts(&self) -> JobCounts {
        let mut inner = self.inner.lock().expect("job lock");
        Self::sweep(self.ttl, &mut inner);
        let mut counts =
            JobCounts { expired: inner.expired, deleted: inner.deleted, ..JobCounts::default() };
        for entry in inner.jobs.values() {
            match entry.status {
                JobStatus::Queued => counts.queued += 1,
                JobStatus::Running => counts.running += 1,
                JobStatus::Done => counts.done += 1,
                JobStatus::Failed => counts.failed += 1,
            }
        }
        counts
    }

    /// Wakes every blocked worker (shutdown path).
    pub fn wake_all(&self) {
        self.arrival.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn views_of_a_finished_job_share_one_exact_size_body() {
        let store: JobStore<()> = JobStore::new();
        let id = store.submit(()).unwrap();
        store.next_job(|| false).unwrap();
        let mut body = String::with_capacity(4096);
        body.push_str("{\"ok\": true}");
        store.finish(id, Ok(body));
        let first = store.view(id).unwrap().result.unwrap();
        let second = store.view(id).unwrap().result.unwrap();
        assert!(Arc::ptr_eq(&first, &second), "both polls read the stored allocation");
        assert_eq!(&*first, "{\"ok\": true}");
        // The store, the two views: one allocation, three handles.
        assert_eq!(Arc::strong_count(&first), 3);
    }

    #[test]
    fn submit_run_finish_lifecycle() {
        let store: JobStore<&'static str> = JobStore::new();
        let id = store.submit("payload").unwrap();
        assert_eq!(store.view(id).unwrap().status, JobStatus::Queued);
        assert_eq!(store.depth(), 1);

        let (popped, payload, _progress) = store.next_job(|| false).unwrap();
        assert_eq!((popped, payload), (id, "payload"));
        assert_eq!(store.view(id).unwrap().status, JobStatus::Running);
        assert_eq!(store.depth(), 0);

        store.finish(id, Ok("{\"ok\": true}".into()));
        let view = store.view(id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert_eq!(view.result.as_deref(), Some("{\"ok\": true}"));
        assert_eq!(view.error, None);
    }

    #[test]
    fn failures_record_the_error() {
        let store: JobStore<()> = JobStore::new();
        let id = store.submit(()).unwrap();
        store.next_job(|| false);
        store.finish(id, Err("bad table".into()));
        let view = store.view(id).unwrap();
        assert_eq!(view.status, JobStatus::Failed);
        assert_eq!(view.error.as_deref(), Some("bad table"));
        assert_eq!(store.counts().failed, 1);
    }

    #[test]
    fn fifo_order() {
        let store: JobStore<u32> = JobStore::new();
        let a = store.submit(10).unwrap();
        let b = store.submit(20).unwrap();
        assert_eq!(store.next_job(|| false).unwrap().0, a);
        assert_eq!(store.next_job(|| false).unwrap().0, b);
    }

    #[test]
    fn unknown_job_is_none() {
        let store: JobStore<()> = JobStore::new();
        assert!(store.view(999).is_none());
    }

    #[test]
    fn finished_jobs_are_evicted_beyond_the_retention_cap() {
        let store: JobStore<()> = JobStore::new();
        let first = store.submit(()).unwrap();
        store.next_job(|| false);
        store.finish(first, Ok("first".into()));
        for _ in 0..MAX_FINISHED_JOBS {
            let id = store.submit(()).unwrap();
            store.next_job(|| false);
            store.finish(id, Ok("body".into()));
        }
        // The oldest finished job fell off; the newest survives.
        assert!(store.view(first).is_none(), "evicted job polls as unknown");
        let newest = first + MAX_FINISHED_JOBS as u64;
        assert_eq!(store.view(newest).unwrap().status, JobStatus::Done);
        assert_eq!(store.counts().done, MAX_FINISHED_JOBS);
    }

    #[test]
    fn submissions_beyond_the_queue_cap_are_refused() {
        let store: JobStore<u32> = JobStore::new();
        for i in 0..MAX_QUEUED_JOBS {
            assert!(store.submit(i as u32).is_some(), "submission {i} fits");
        }
        assert!(store.submit(0).is_none(), "the cap refuses the overflow submission");
        assert_eq!(store.depth(), MAX_QUEUED_JOBS);
        // Draining one makes room again.
        store.next_job(|| false).unwrap();
        assert!(store.submit(0).is_some());
    }

    #[test]
    fn give_up_wins_over_a_queued_backlog() {
        // Shutdown must not wait for the backlog to drain.
        let store: JobStore<u32> = JobStore::new();
        store.submit(1).unwrap();
        store.submit(2).unwrap();
        assert!(store.next_job(|| true).is_none(), "give_up beats queued work");
        assert_eq!(store.depth(), 2, "backlog left untouched");
    }

    #[test]
    fn give_up_unblocks_idle_workers() {
        let store: JobStore<()> = JobStore::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let worker = s.spawn(|| store.next_job(|| stop.load(Ordering::Relaxed)));
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Relaxed);
            store.wake_all();
            assert!(worker.join().unwrap().is_none());
        });
    }

    #[test]
    fn blocked_worker_wakes_on_submit() {
        let store: JobStore<u32> = JobStore::new();
        std::thread::scope(|s| {
            let worker = s.spawn(|| store.next_job(|| false));
            std::thread::sleep(Duration::from_millis(10));
            store.submit(7).unwrap();
            let (_, payload, _) = worker.join().unwrap().unwrap();
            assert_eq!(payload, 7);
        });
    }

    #[test]
    fn finished_jobs_expire_after_the_ttl() {
        let store: JobStore<()> = JobStore::with_ttl(Some(Duration::from_millis(30)));
        let id = store.submit(()).unwrap();
        store.next_job(|| false);
        store.finish(id, Ok("body".into()));
        assert_eq!(store.view(id).unwrap().status, JobStatus::Done, "fresh job polls fine");
        std::thread::sleep(Duration::from_millis(60));
        assert!(store.view(id).is_none(), "expired job polls as unknown");
        let counts = store.counts();
        assert_eq!(counts.expired, 1);
        assert_eq!(counts.done, 0);
    }

    #[test]
    fn ttl_spares_unfinished_jobs() {
        // The TTL clock starts at finish time, not submit time: a queued or
        // running job can never expire no matter how old it is.
        let store: JobStore<()> = JobStore::with_ttl(Some(Duration::from_millis(10)));
        let running = store.submit(()).unwrap();
        let queued = store.submit(()).unwrap();
        assert_eq!(store.next_job(|| false).unwrap().0, running);
        std::thread::sleep(Duration::from_millis(40));
        assert!(store.view(queued).is_some());
        assert!(store.view(running).is_some());
        assert_eq!(store.counts().expired, 0);
    }

    #[test]
    fn delete_lifecycle() {
        let store: JobStore<u32> = JobStore::new();
        // Unknown id.
        assert_eq!(store.delete(999), DeleteOutcome::NotFound);
        // Queued: cancelled, never reaches a worker.
        let cancelled = store.submit(1).unwrap();
        let kept = store.submit(2).unwrap();
        assert_eq!(store.delete(cancelled), DeleteOutcome::Deleted);
        assert!(store.view(cancelled).is_none());
        assert_eq!(store.next_job(|| false).unwrap().0, kept, "cancelled job skipped");
        // Running: refused.
        assert_eq!(store.delete(kept), DeleteOutcome::Running);
        assert!(store.view(kept).is_some(), "running job survives a delete attempt");
        // Finished: freed.
        store.finish(kept, Ok("body".into()));
        assert_eq!(store.delete(kept), DeleteOutcome::Deleted);
        assert!(store.view(kept).is_none());
        // Deleting twice is NotFound.
        assert_eq!(store.delete(kept), DeleteOutcome::NotFound);
        assert_eq!(store.counts().deleted, 2);
    }

    #[test]
    fn delete_frees_retention_slots() {
        // A deleted finished job must not keep occupying the retention
        // window (the finished deque is purged, not left stale).
        let store: JobStore<()> = JobStore::new();
        let a = store.submit(()).unwrap();
        store.next_job(|| false);
        store.finish(a, Ok("a".into()));
        store.delete(a);
        for _ in 0..MAX_FINISHED_JOBS {
            let id = store.submit(()).unwrap();
            store.next_job(|| false);
            store.finish(id, Ok("body".into()));
        }
        // All MAX_FINISHED_JOBS survivors are the later ones; none were
        // evicted early by a's stale slot.
        assert_eq!(store.counts().done, MAX_FINISHED_JOBS);
    }
}
