//! The serve core: the event thread, worker fan-out, and shared
//! application state.
//!
//! `serve()` runs one *event* thread (the readiness loop in
//! `crate::event` — it owns every socket, nonblocking), a fixed pool of
//! *worker* threads (they parse request bodies and run the actual cleans),
//! and the job workers, all as *scoped* threads: the call blocks until
//! [`ServerHandle::stop`], and every thread is joined before it returns —
//! no detached threads, no `'static` state beyond the `Arc<AppState>` the
//! handle shares.
//!
//! The division of labour is strict: the event thread does all socket I/O
//! and HTTP framing, incrementally, exactly as far as the bytes at hand
//! allow; workers only ever see *complete* requests, handed over through a
//! bounded `event::WorkQueue`. A slow, stalled, or hostile client
//! therefore costs one parked connection struct in the event thread —
//! never a worker, and never the accept path. When the work queue is full
//! new requests are refused with an immediate 503, and when the connection
//! cap is reached new connections are — saturation degrades loudly and
//! recoverably at two explicit valves.

use crate::api::{self, CleanPayload};
use crate::event::{self, Reactor, Reply, Work, WorkQueue};
use crate::http::{Request, Response, DEFAULT_MAX_BODY_BYTES};
use crate::jobs::JobStore;
use crate::metrics::{Counter, Metrics};
use crate::obs::{self, LogFormat, ServerObs};
use crate::reviews::ReviewStore;
use cocoon_core::{AutoApprove, Cleaner, CleaningRun, RunProgress};
use cocoon_llm::{CachedLlm, CoalescingDispatcher, RateLimit, SimLlm};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tunables; `Default` is a sensible local deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads running cleans — the concurrent-request bound.
    pub workers: usize,
    /// Dedicated workers draining the async job queue.
    pub job_workers: usize,
    /// Complete requests allowed to wait for a free worker; beyond this
    /// the event loop answers 503 immediately.
    pub request_backlog: usize,
    /// Open-connection cap; beyond it new connections are refused with an
    /// immediate 503.
    pub max_conns: usize,
    /// How long a connection may sit without moving a byte before the
    /// event loop reclaims it (any byte resets the clock) — the
    /// slow-loris bound. Requests parked with a worker are exempt.
    pub idle_timeout: Duration,
    /// Request-body cap in bytes (over → 413).
    pub max_body: usize,
    /// LRU bound on the shared completion cache (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Finished jobs expire this long after finishing (`None` = never;
    /// the retention cap still applies).
    pub job_ttl: Option<Duration>,
    /// Token-bucket limit on prompts the shared LLM dispatcher sends to
    /// the backend (`None` = unthrottled).
    pub rate_limit: Option<RateLimit>,
    /// Access-log rendering on stderr (`--log-format json|off`).
    pub log_format: LogFormat,
    /// Requests slower than this many milliseconds dump their full span
    /// tree to stderr (`None` = never).
    pub slow_request_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: threadpool::default_threads().max(8),
            job_workers: 2,
            request_backlog: 64,
            max_conns: 10_000,
            idle_timeout: Duration::from_secs(30),
            max_body: DEFAULT_MAX_BODY_BYTES,
            cache_capacity: Some(16 * 1024),
            job_ttl: Some(Duration::from_secs(900)),
            rate_limit: None,
            log_format: LogFormat::Off,
            slow_request_ms: None,
        }
    }
}

/// The process-wide model stack: one completion cache over one coalescing
/// dispatcher over the deterministic offline oracle. Every request worker
/// and job worker cleans through this shared stack, which is what makes
/// cross-request coalescing and cache reuse possible at all.
pub type SharedLlm = CachedLlm<CoalescingDispatcher<SimLlm>>;

/// State shared by the event thread, the workers and the job workers.
pub struct AppState {
    /// The process-wide model stack.
    pub llm: SharedLlm,
    /// Request/connection counters.
    pub metrics: Metrics,
    /// The async job store.
    pub jobs: JobStore<CleanPayload>,
    /// Withheld low-confidence repairs awaiting human review.
    pub reviews: ReviewStore,
    /// Request ids, span traces, latency histograms, access-log policy.
    pub obs: Arc<ServerObs>,
    /// Request-body cap in bytes.
    pub max_body: usize,
    /// The slow-loris idle bound (see [`ServerConfig::idle_timeout`]).
    pub idle_timeout: Duration,
    /// The open-connection cap (see [`ServerConfig::max_conns`]).
    pub(crate) max_conns: usize,
    /// The bounded hand-off of complete requests to the worker pool.
    pub(crate) work: WorkQueue,
    /// The event thread's poller, waker and reply mailbox.
    pub(crate) reactor: Reactor,
    shutdown: AtomicBool,
}

impl AppState {
    /// Builds the shared state for `config`, including the event thread's
    /// poller.
    ///
    /// # Panics
    ///
    /// If the kernel refuses an epoll instance or eventfd — as
    /// unrecoverable as a poisoned lock, and treated the same way.
    pub fn new(config: &ServerConfig) -> Self {
        let obs = Arc::new(ServerObs::new(config.log_format, config.slow_request_ms));
        let dispatcher = CoalescingDispatcher::new(SimLlm::new(), config.rate_limit);
        // The fanout observer outlives every request; it records each batch
        // under the request whose thread sent it.
        let batches: Arc<dyn cocoon_llm::DispatchObserver> = obs.batches.clone();
        dispatcher.set_observer(batches);
        let llm = match config.cache_capacity {
            Some(capacity) => CachedLlm::with_capacity(dispatcher, capacity),
            None => CachedLlm::new(dispatcher),
        };
        AppState {
            llm,
            metrics: Metrics::new(),
            jobs: JobStore::with_ttl(config.job_ttl),
            reviews: ReviewStore::with_ttl(config.job_ttl),
            obs,
            max_body: config.max_body,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns.max(1),
            work: WorkQueue::new(config.request_backlog.max(1)),
            reactor: Reactor::new().expect("create event poller"),
            shutdown: AtomicBool::new(false),
        }
    }

    /// True once [`ServerHandle::stop`] has run.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Runs one clean against the shared model stack. Identical logic for
    /// the synchronous endpoint (`progress: None`) and job workers (who
    /// pass the job's progress), so the two paths produce byte-identical
    /// artifacts for the same input; rendering (JSON or CSV) is the
    /// caller's choice.
    ///
    /// Every clean is observed: a [`cocoon_core::StageObserver`] feeds the
    /// shared per-stage latency histograms (and, for a clean running
    /// inside a traced request, stage spans under the handler). The clean
    /// sends its model calls from this thread, so the LLM batches it sends
    /// land under the same handler (see [`crate::obs::BatchFanout`]).
    ///
    /// Repairs the confidence threshold withheld are registered with the
    /// review store under `job` (the submitting job's id, `None` for the
    /// synchronous endpoints), so `GET /v1/reviews` surfaces them as soon
    /// as the response ships.
    pub fn run_clean(
        &self,
        payload: &CleanPayload,
        progress: Option<&RunProgress>,
        job: Option<u64>,
    ) -> Result<CleaningRun, cocoon_core::CoreError> {
        let cleaner = Cleaner::with_config(&self.llm, payload.config.clone())?;
        let mut hook = AutoApprove;
        // The sync path carries no job progress; a local one hosts the
        // stage observer so both paths time stages identically.
        let local_progress;
        let progress = match progress {
            Some(progress) => progress,
            None => {
                local_progress = RunProgress::new();
                &local_progress
            }
        };
        progress.set_observer(self.obs.stage_observer());
        let run = cleaner.clean_observed(&payload.table, &mut hook, Some(progress))?;
        self.reviews.register(&run, job);
        Ok(run)
    }
}

/// A bound-but-not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    workers: usize,
    job_workers: usize,
}

impl Server {
    /// Binds the listener (nonblocking — it lives in the event thread's
    /// poller) and builds the shared state. The server is not accepting
    /// until [`serve`](Self::serve) runs.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            state: Arc::new(AppState::new(&config)),
            workers: config.workers.max(1),
            job_workers: config.job_workers.max(1),
        })
    }

    /// The bound address (the ephemeral port, under `addr: "…:0"`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (tests read counters through this).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// A handle that can stop a running [`serve`](Self::serve) from another
    /// thread.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle { addr: self.local_addr()?, state: Arc::clone(&self.state) })
    }

    /// Accepts and serves until the handle stops the server. Blocks the
    /// calling thread; the event thread, worker pool and job workers are
    /// scoped inside.
    pub fn serve(&self) -> io::Result<()> {
        let state = &self.state;
        std::thread::scope(|scope| {
            scope.spawn(move || event::event_loop(state, &self.listener));
            for _ in 0..self.workers {
                scope.spawn(move || worker_loop(state, api::route));
            }
            for _ in 0..self.job_workers {
                scope.spawn(move || job_loop(state, clean_job));
            }
        });
        Ok(())
    }
}

/// Stops a running server: raises the shutdown flag and wakes every
/// blocked thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests read counters through this).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops the server. Wedge-free by construction: the event thread is
    /// woken through its eventfd and re-checks the flag (its poll waits are
    /// bounded by the sweep tick regardless), idle workers and job workers
    /// wake from their condvars (and re-check on a 50 ms timer regardless),
    /// busy workers finish their current request first, and connections
    /// still open — parked, mid-parse, or mid-response — are simply closed.
    pub fn stop(&self) {
        self.state.request_shutdown();
        self.state.jobs.wake_all();
        self.state.work.wake_all();
        self.state.reactor.waker.wake();
    }
}

/// Runs `work`, counting a panic and answering `on_panic()` instead: a bug
/// in one request or job costs neither its worker thread nor its client.
fn contain<T>(state: &AppState, work: impl FnOnce() -> T, on_panic: impl FnOnce() -> T) -> T {
    // Unwind safety: everything a handler shares lives in `AppState` behind
    // a mutex (which a panic poisons) or in atomics, so nothing is left
    // half-updated in a way the next request could read as valid.
    panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| {
        state.metrics.count(Counter::HandlerPanics);
        on_panic()
    })
}

/// One worker: pop complete requests off the queue, run them through
/// `handle` (the server passes [`api::route`]), and post the response back
/// to the event thread, until shutdown. Workers never touch a socket.
fn worker_loop(state: &AppState, handle: impl Fn(&AppState, &Request) -> Response) {
    while let Some(work) = state.work.pop(|| state.shutdown_requested()) {
        let Work { token, request, trace, queued_at } = work;
        // The queue-wait segment runs from the event loop's push to this
        // pop; the handler span opens now and closes after routing, so
        // stage and batch spans recorded during the clean nest under it.
        let handler = trace.as_ref().map(|trace| {
            let now = Instant::now();
            trace.recorder.record("queue_wait", queued_at, now, None);
            trace.recorder.open("handler", now)
        });
        let current =
            trace.as_ref().zip(handler).map(|(trace, handler)| (Arc::clone(trace), handler));
        // The catch sits inside the trace scope, so a panic still restores
        // the thread's current trace and closes the handler span.
        let response = obs::with_current_trace(current, || {
            contain(
                state,
                || handle(state, &request),
                || {
                    state.metrics.count_status(500);
                    Response::error(500, "the handler panicked; see the server log")
                },
            )
        });
        if let (Some(trace), Some(handler)) = (&trace, handler) {
            trace.recorder.close(handler, Instant::now());
        }
        state.reactor.post(Reply { token, response });
    }
}

/// Runs one job's clean, rendered as the JSON body a synchronous
/// `/v1/clean` would have returned.
fn clean_job(
    state: &AppState,
    id: u64,
    payload: &CleanPayload,
    progress: &RunProgress,
) -> Result<String, String> {
    state
        .run_clean(payload, Some(progress), Some(id))
        .map(|run| api::clean_response_body(&run, payload.include_rows))
        .map_err(|e| format!("clean failed: {e}"))
}

/// Drains the job queue through `clean` (the server passes [`clean_job`])
/// until shutdown; a panicking clean fails its job.
fn job_loop(
    state: &AppState,
    clean: impl Fn(&AppState, u64, &CleanPayload, &RunProgress) -> Result<String, String>,
) {
    while let Some((id, payload, progress)) = state.jobs.next_job(|| state.shutdown_requested()) {
        let outcome = contain(
            state,
            || clean(state, id, &payload, &progress),
            || Err("clean failed: the job worker panicked; see the server log".to_string()),
        );
        state.jobs.finish(id, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::RequestReader;
    use cocoon_llm::Json;

    fn test_state() -> AppState {
        AppState::new(&ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        RequestReader::new(raw.as_bytes(), DEFAULT_MAX_BODY_BYTES).next_request().unwrap()
    }

    fn get(path: &str) -> Request {
        RequestReader::new(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes(), 1024)
            .next_request()
            .unwrap()
    }

    fn delete(path: &str) -> Request {
        RequestReader::new(format!("DELETE {path} HTTP/1.1\r\n\r\n").as_bytes(), 1024)
            .next_request()
            .unwrap()
    }

    /// Runs the queued job inline (no worker threads in unit tests),
    /// exactly as `job_loop` would.
    fn run_one_job(state: &AppState) -> u64 {
        let (id, payload, progress) = state.jobs.next_job(|| false).unwrap();
        state.jobs.finish(id, clean_job(state, id, &payload, &progress));
        id
    }

    #[test]
    fn sync_clean_and_job_clean_produce_identical_bodies() {
        let state = test_state();
        let body = r#"{"csv": "id,lang\n1,eng\n2,eng\n3,eng\n4,English\n"}"#;
        let sync = api::route(&state, &post("/v1/clean", body));
        assert_eq!(sync.status, 200);

        let submit = api::route(&state, &post("/v1/jobs", body));
        assert_eq!(submit.status, 202);
        let id = run_one_job(&state);

        let poll = api::route(&state, &get(&format!("/v1/jobs/{id}")));
        assert_eq!(poll.status, 200);
        let poll_json = cocoon_llm::json::parse(std::str::from_utf8(&poll.body).unwrap()).unwrap();
        assert_eq!(poll_json.get("status").unwrap().as_str(), Some("done"));
        let sync_json = cocoon_llm::json::parse(std::str::from_utf8(&sync.body).unwrap()).unwrap();
        assert_eq!(poll_json.get("result"), Some(&sync_json));
        let progress = poll_json.get("progress").unwrap();
        assert_eq!(progress.get("finished").unwrap().as_bool(), Some(true));
        assert_eq!(progress.get("total_stages").unwrap().as_f64(), Some(8.0));
    }

    #[test]
    fn router_statuses() {
        let state = test_state();
        assert_eq!(api::route(&state, &get("/nope")).status, 404);
        assert_eq!(api::route(&state, &get("/v1/clean")).status, 405);
        assert_eq!(api::route(&state, &get("/v1/jobs/999")).status, 404);
        assert_eq!(api::route(&state, &get("/v1/jobs/abc")).status, 400);
        assert_eq!(api::route(&state, &post("/v1/clean", "{")).status, 400);
        assert_eq!(api::route(&state, &get("/v1/datasets")).status, 200);
        assert_eq!(api::route(&state, &get("/v1/metrics")).status, 200);
        assert_eq!(api::route(&state, &delete("/v1/jobs/999")).status, 404);
        assert_eq!(api::route(&state, &delete("/v1/jobs/abc")).status, 400);
        assert_eq!(api::route(&state, &post("/v1/jobs/1", "x")).status, 405);
    }

    #[test]
    fn delete_endpoint_lifecycle() {
        let state = test_state();
        let body = r#"{"csv": "id,lang\n1,eng\n2,eng\n3,eng\n4,English\n"}"#;
        let submit = api::route(&state, &post("/v1/jobs", body));
        assert_eq!(submit.status, 202);
        let submitted =
            cocoon_llm::json::parse(std::str::from_utf8(&submit.body).unwrap()).unwrap();
        let id = submitted.get("id").unwrap().as_f64().unwrap() as u64;

        // Deleting the queued job cancels it.
        assert_eq!(api::route(&state, &delete(&format!("/v1/jobs/{id}"))).status, 204);
        assert_eq!(api::route(&state, &get(&format!("/v1/jobs/{id}"))).status, 404);
        assert!(state.jobs.next_job(|| true).is_none(), "no job left for a worker");

        // A finished job deletes too; a second delete is 404.
        api::route(&state, &post("/v1/jobs", body));
        let id = run_one_job(&state);
        assert_eq!(api::route(&state, &get(&format!("/v1/jobs/{id}"))).status, 200);
        assert_eq!(api::route(&state, &delete(&format!("/v1/jobs/{id}"))).status, 204);
        assert_eq!(api::route(&state, &delete(&format!("/v1/jobs/{id}"))).status, 404);
        assert_eq!(state.jobs.counts().deleted, 2);
    }

    #[test]
    fn metrics_body_reflects_traffic_and_parses() {
        let state = test_state();
        api::route(&state, &post("/v1/clean", r#"{"csv": "a,b\n1,x\n2,y\n"}"#));
        api::route(&state, &get("/nope"));
        let body = state.metrics_body();
        let json = cocoon_llm::json::parse(&body).expect("metrics body parses");
        let requests = json.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_f64(), Some(2.0));
        assert_eq!(requests.get("clean").unwrap().as_f64(), Some(1.0));
        assert_eq!(requests.get("responses_4xx").unwrap().as_f64(), Some(1.0));
        let llm = json.get("llm").unwrap();
        assert!(llm.get("cache_misses").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(llm.get("cache_evictions").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            llm.get("cache_capacity").unwrap().as_f64(),
            Some((16 * 1024) as f64),
            "the default capacity is visible"
        );
        assert!(
            llm.get("cached_responses").unwrap().as_f64().unwrap() > 0.0,
            "entry count is visible"
        );
        assert!(llm.get("dispatcher").unwrap().get("batches").is_some());
        let accept = json.get("accept").unwrap();
        assert_eq!(accept.get("queue_depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(accept.get("queue_capacity").unwrap().as_f64(), Some(64.0));
        let connections = json.get("connections").unwrap();
        assert_eq!(connections.get("open").unwrap().as_f64(), Some(0.0));
        assert_eq!(connections.get("peak").unwrap().as_f64(), Some(0.0));
        assert_eq!(connections.get("idle_reaped").unwrap().as_f64(), Some(0.0));
        assert_eq!(connections.get("partial_writes").unwrap().as_f64(), Some(0.0));
        let jobs = json.get("jobs").unwrap();
        assert!(jobs.get("queue_depth").is_some());
        assert_eq!(jobs.get("expired").unwrap().as_f64(), Some(0.0));
        assert_eq!(jobs.get("deleted").unwrap().as_f64(), Some(0.0));
        let reviews = json.get("reviews").unwrap();
        for field in
            ["listed", "accept_requests", "reject_requests", "pending", "accepted", "rejected"]
        {
            assert_eq!(reviews.get(field).unwrap().as_f64(), Some(0.0), "{field}");
        }
    }

    #[test]
    fn unbounded_cache_reports_null_capacity() {
        let state = AppState::new(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_capacity: None,
            ..ServerConfig::default()
        });
        let json = cocoon_llm::json::parse(&state.metrics_body()).unwrap();
        assert_eq!(json.get("llm").unwrap().get("cache_capacity"), Some(&cocoon_llm::Json::Null));
    }

    #[test]
    fn repeat_cleans_hit_the_shared_cache() {
        let state = test_state();
        let body = r#"{"csv": "id,lang\n1,eng\n2,eng\n3,eng\n4,English\n"}"#;
        let first = api::route(&state, &post("/v1/clean", body));
        let misses_after_first = state.llm.misses();
        let second = api::route(&state, &post("/v1/clean", body));
        assert_eq!(first, second, "repeat responses are byte-identical");
        assert_eq!(
            state.llm.misses(),
            misses_after_first,
            "second clean is served entirely from the shared cache"
        );
        assert!(state.llm.hits() > 0);
    }

    /// `requests.handler_panics` as `/v1/metrics` and `GET /metrics` report it.
    fn panics_in_both_outputs(state: &AppState) -> (f64, bool) {
        let json = cocoon_llm::json::parse(&state.metrics_body()).unwrap();
        let reported = json.get("requests").unwrap().get("handler_panics").unwrap();
        let scraped = state.prometheus_body().lines().any(|l| l == "cocoon_handler_panics_total 1");
        (reported.as_f64().unwrap(), scraped)
    }

    #[test]
    fn handler_panic_answers_500_and_the_worker_serves_on() {
        let state = test_state();
        let trace = Arc::new(state.obs.begin_request(Instant::now()));
        for (token, path) in [(1, "/panic"), (2, "/v1/datasets")] {
            let (request, trace) = (get(path), Some(Arc::clone(&trace)));
            assert!(state.work.push(Work { token, request, trace, queued_at: Instant::now() }));
        }
        // Runs on this thread and returns once the second request asks the
        // loop to stop: the panic cost neither the thread nor the loop.
        worker_loop(&state, |state, request| {
            if request.head.path == "/panic" {
                panic!("injected");
            }
            state.request_shutdown();
            api::route(state, request)
        });
        let statuses: Vec<(u64, u16)> = state
            .reactor
            .take_replies()
            .into_iter()
            .map(|reply| (reply.token, reply.response.status))
            .collect();
        assert_eq!(statuses, [(1, 500), (2, 200)]);
        assert!(obs::current_trace().is_none(), "the thread's current trace is restored");
        let handlers = trace.recorder.finish().iter().filter(|s| s.name == "handler").count();
        assert_eq!(handlers, 2, "both handler spans were recorded");
        assert_eq!(panics_in_both_outputs(&state), (1.0, true));
        assert_eq!(state.metrics.get(Counter::Responses5xx), 1);
    }

    #[test]
    fn job_panic_fails_the_job_and_the_worker_cleans_on() {
        let state = test_state();
        let payload = |csv: &str| api::parse_clean_payload(csv.as_bytes()).unwrap();
        let first = state.jobs.submit(payload(r#"{"csv": "a\n1\n"}"#)).unwrap();
        let second = state.jobs.submit(payload(r#"{"csv": "a\n2\n"}"#)).unwrap();
        // As above: the loop runs here and cleans the second job after the
        // first one panicked.
        job_loop(&state, |state, id, payload, progress| {
            if id == first {
                panic!("injected");
            }
            state.request_shutdown();
            clean_job(state, id, payload, progress)
        });
        let failed = state.jobs.view(first).unwrap();
        assert_eq!(failed.status, crate::jobs::JobStatus::Failed);
        assert!(failed.error.unwrap().contains("panicked"));
        assert_eq!(state.jobs.view(second).unwrap().status, crate::jobs::JobStatus::Done);
        assert_eq!(panics_in_both_outputs(&state), (1.0, true));
    }

    /// Every numeric `/v1/metrics` figure outside `latency` has exactly one
    /// `GET /metrics` counter or gauge with the same value, named
    /// `cocoon_<section>_<key>` (plus `_total` on counters) unless listed
    /// as an exception, and every counter or gauge maps back to a figure.
    #[test]
    fn json_and_prometheus_report_the_same_figures() {
        let state = test_state();
        let config = cocoon_core::CleanerConfig {
            confidence_threshold: 0.9,
            ..cocoon_core::CleanerConfig::only_issue(cocoon_core::IssueKind::StringOutliers)
        };
        let mut csv = String::from("drink,country\n");
        csv.push_str(&"coffee,USA\n".repeat(50));
        csv.push_str(&"tea,India\n".repeat(10));
        csv.push_str("cofffee,Hindi\n");
        let body = format!(
            "{{\"csv\": {}, \"config\": {}}}",
            cocoon_llm::json::escape(&csv),
            config.to_json()
        );
        assert_eq!(api::route(&state, &post("/v1/clean", &body)).status, 200);
        assert_eq!(api::route(&state, &post("/v1/jobs", &body)).status, 202);
        let id = run_one_job(&state);
        assert_eq!(api::route(&state, &get(&format!("/v1/jobs/{id}"))).status, 200);
        let review = state.reviews.list()[0].id;
        let accept = post(&format!("/v1/reviews/{review}/accept"), "");
        assert_eq!(api::route(&state, &accept).status, 200);
        assert_eq!(api::route(&state, &get("/nope")).status, 404);

        let json = cocoon_llm::json::parse(&state.metrics_body()).unwrap();
        let mut figures = Vec::new();
        let mut pending = vec![(String::new(), &json)];
        while let Some((path, node)) = pending.pop() {
            match node {
                Json::Object(members) => pending.extend(
                    members
                        .iter()
                        .filter(|(key, _)| !(path.is_empty() && *key == "latency"))
                        .map(|(key, child)| (format!("{path}.{key}"), child)),
                ),
                Json::Number(value) => figures.push((path[1..].to_string(), *value)),
                _ => {}
            }
        }
        // Series named before the naming rule, and the panic counter's
        // short name.
        let exceptions = [
            ("requests.total", "cocoon_requests_total"),
            ("requests.responses_4xx", "cocoon_responses_4xx_total"),
            ("requests.responses_5xx", "cocoon_responses_5xx_total"),
            ("requests.handler_panics", "cocoon_handler_panics_total"),
            ("accept.accepted", "cocoon_connections_accepted_total"),
            ("accept.rejected_busy", "cocoon_connections_rejected_total"),
            ("accept.queue_depth", "cocoon_work_queue_depth"),
        ];

        let text = state.prometheus_body();
        let mut types = std::collections::HashMap::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            if let Some(typed) = line.strip_prefix("# TYPE ") {
                let (name, kind) = typed.split_once(' ').unwrap();
                types.insert(name, kind);
            } else if !line.starts_with('#') && !line.contains('{') {
                let (name, value) = line.split_once(' ').unwrap();
                samples.push((name, value.parse::<f64>().unwrap()));
            }
        }
        let mut missing = Vec::new();
        let mut mapped = std::collections::HashSet::new();
        for (path, value) in &figures {
            let name = match exceptions.iter().find(|(p, _)| p == path) {
                Some((_, name)) => name.to_string(),
                None => format!("cocoon_{}", path.replace('.', "_")),
            };
            let matching: Vec<_> = samples
                .iter()
                .filter(|(sample, _)| {
                    *sample == name || sample.strip_suffix("_total") == Some(name.as_str())
                })
                .collect();
            match matching[..] {
                [(sample, scraped)] => {
                    assert_eq!(scraped, value, "{path} vs {sample}");
                    let kind = if sample.ends_with("_total") { "counter" } else { "gauge" };
                    assert_eq!(types.get(sample), Some(&kind), "{sample}");
                    mapped.insert(*sample);
                }
                _ => missing.push(path.as_str()),
            }
        }
        assert!(
            missing.is_empty(),
            "{} figures lack one Prometheus sample: {missing:?}",
            missing.len()
        );
        let unmapped: Vec<_> = samples.iter().filter(|(name, _)| !mapped.contains(name)).collect();
        assert!(unmapped.is_empty(), "counters or gauges with no figure: {unmapped:?}");
        assert!(figures.iter().any(|(path, v)| path == "reviews.accepted" && *v == 1.0));
        assert!(figures.iter().any(|(path, v)| path == "jobs.done" && *v == 1.0));
    }

    #[test]
    fn work_queue_bounds_and_wakes() {
        let queue = WorkQueue::new(1);
        assert_eq!(queue.depth(), 0);
        // give_up pops nothing and returns promptly.
        assert!(queue.pop(|| true).is_none());
    }
}
