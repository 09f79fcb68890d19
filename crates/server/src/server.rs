//! The serve core: event threads, worker fan-out, and shared application
//! state.
//!
//! `serve()` runs a small number of *event* threads (the readiness loops
//! in `crate::event` — they own every socket, nonblocking), a fixed pool
//! of *worker* threads (they run the actual cleans), and the job workers,
//! all as *scoped* threads: the call blocks until [`ServerHandle::stop`],
//! and every thread is joined before it returns — no detached threads, no
//! `'static` state beyond the `Arc<AppState>` the handle shares.
//!
//! The division of labour is strict: event threads do all socket I/O and
//! all protocol parsing, incrementally, exactly as far as the bytes at
//! hand allow; workers only ever see *complete* requests, handed over
//! through a bounded `event::WorkQueue`. A slow, stalled, or hostile
//! client therefore costs one parked connection struct in an event thread
//! — never a worker, and never the accept path. When the work queue is
//! full new requests are refused with an immediate 503, and when the
//! connection cap is reached new connections are — saturation degrades
//! loudly and recoverably at two explicit valves.

use crate::api::{self, CleanPayload};
use crate::event::{self, Mail, Shard, Work, WorkKind, WorkQueue};
use crate::http::DEFAULT_MAX_BODY_BYTES;
use crate::jobs::JobStore;
use crate::metrics::Metrics;
use crate::obs::{self, LogFormat, ServerObs};
use crate::reviews::ReviewStore;
use cocoon_core::{AutoApprove, Cleaner, CleaningRun, RunProgress};
use cocoon_llm::{CachedLlm, ChatModel, CoalescingDispatcher, DispatcherConfig, SimLlm};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// Event threads owning the sockets. One loop comfortably multiplexes
    /// thousands of connections; raise only when event-loop work (parsing,
    /// response writing) itself saturates a core.
    pub event_threads: usize,
    /// Complete requests allowed to wait for a free worker; beyond this
    /// the event loop answers 503 immediately.
    pub request_backlog: usize,
    /// Open-connection cap across all event threads; beyond it new
    /// connections are refused with an immediate 503.
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
    /// Policy of the shared LLM dispatcher.
    pub dispatcher: DispatcherConfig,
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
            event_threads: 1,
            request_backlog: 64,
            max_conns: 10_000,
            idle_timeout: Duration::from_secs(30),
            max_body: DEFAULT_MAX_BODY_BYTES,
            cache_capacity: Some(16 * 1024),
            job_ttl: Some(Duration::from_secs(900)),
            dispatcher: DispatcherConfig::default(),
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

/// State shared by every event, worker, and job thread.
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
    /// One shard per event thread: poller + waker + mailbox.
    pub(crate) shards: Vec<Shard>,
    next_shard: AtomicUsize,
    shutdown: AtomicBool,
}

impl AppState {
    /// Builds the shared state for `config`, including one poller shard
    /// per event thread.
    ///
    /// # Panics
    ///
    /// If the kernel refuses an epoll instance or eventfd — as
    /// unrecoverable as a poisoned lock, and treated the same way.
    pub fn new(config: &ServerConfig) -> Self {
        let obs = Arc::new(ServerObs::new(config.log_format, config.slow_request_ms));
        let dispatcher = CoalescingDispatcher::new(SimLlm::new(), config.dispatcher);
        // The fanout observer outlives every request; the dispatcher holds
        // it for the process lifetime and requests subscribe per-clean.
        let batches: Arc<dyn cocoon_llm::DispatchObserver> = obs.batches.clone();
        dispatcher.set_observer(batches);
        let llm = match config.cache_capacity {
            Some(capacity) => CachedLlm::with_capacity(dispatcher, capacity),
            None => CachedLlm::new(dispatcher),
        };
        let shards = (0..config.event_threads.max(1))
            .map(|_| Shard::new().expect("create event poller"))
            .collect();
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
            shards,
            next_shard: AtomicUsize::new(0),
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

    /// The round-robin counter distributing new connections over shards.
    pub(crate) fn next_shard(&self) -> usize {
        self.next_shard.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one clean against the shared model stack. Identical logic for
    /// the synchronous endpoint (`progress: None`) and job workers (who
    /// pass the job's progress), so the two paths produce byte-identical
    /// artifacts for the same input; rendering (JSON or CSV) is the
    /// caller's choice.
    ///
    /// Every clean is observed: a [`cocoon_core::StageObserver`] feeds the
    /// shared per-stage latency histograms (and, for a clean running
    /// inside a traced request, stage spans under the handler), and the
    /// request — if any — subscribes to LLM batch events for the duration.
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
        let _batch_sub =
            obs::current_trace().map(|(trace, parent)| self.obs.batches.subscribe(trace, parent));
        let run = cleaner.clean_observed(&payload.table, &mut hook, Some(progress))?;
        self.reviews.register(&run, job);
        Ok(run)
    }

    /// The `/v1/metrics` body: request counters, work-queue and
    /// connection state, the live LLM cache and dispatcher figures, and
    /// job-store state.
    pub fn metrics_body(&self) -> String {
        let m = self.metrics.snapshot();
        let d = self.llm.inner().stats();
        let j = self.jobs.counts();
        let r = self.reviews.counts();
        format!(
            "{{\"requests\": {{\"total\": {}, \"clean\": {}, \"jobs_submitted\": {}, \
             \"jobs_polled\": {}, \"jobs_deleted\": {}, \"datasets\": {}, \"metrics\": {}, \
             \"responses_4xx\": {}, \"responses_5xx\": {}}}, \
             \"accept\": {{\"accepted\": {}, \"rejected_busy\": {}, \"queue_depth\": {}, \
             \"queue_capacity\": {}}}, \
             \"connections\": {{\"open\": {}, \"peak\": {}, \"idle_reaped\": {}, \
             \"partial_writes\": {}, \"event_threads\": {}}}, \
             \"llm\": {{\"model\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_evictions\": {}, \"cached_responses\": {}, \"cache_capacity\": {}, \
             \"dispatcher\": {{\"coalesced\": {}, \"batches\": {}, \"batched_prompts\": {}, \
             \"rate_limit_waits\": {}, \"rate_limited_ms\": {}}}}}, \
             \"jobs\": {{\"queued\": {}, \"running\": {}, \"done\": {}, \"failed\": {}, \
             \"expired\": {}, \"deleted\": {}, \"queue_depth\": {}}}, \
             \"reviews\": {{\"listed\": {}, \"accept_requests\": {}, \"reject_requests\": {}, \
             \"pending\": {}, \"accepted\": {}, \"rejected\": {}, \"dropped\": {}}}, \
             \"latency\": {}}}",
            m.requests_total,
            m.clean_requests,
            m.jobs_submitted,
            m.jobs_polled,
            m.jobs_deleted,
            m.dataset_requests,
            m.metrics_requests,
            m.responses_4xx,
            m.responses_5xx,
            m.connections_accepted,
            m.connections_rejected,
            self.work.depth(),
            self.work.capacity,
            m.connections_open,
            m.connections_peak,
            m.idle_reaped,
            m.partial_writes,
            self.shards.len(),
            crate::http::json_escape(self.llm.model_name()),
            self.llm.hits(),
            self.llm.misses(),
            self.llm.evictions(),
            self.llm.len(),
            match self.llm.capacity() {
                Some(capacity) => capacity.to_string(),
                None => "null".to_string(),
            },
            d.coalesced,
            d.batches,
            d.batched_prompts,
            d.rate_limit_waits,
            d.rate_limited_ms,
            j.queued,
            j.running,
            j.done,
            j.failed,
            j.expired,
            j.deleted,
            self.jobs.depth(),
            m.reviews_listed,
            m.reviews_accepted,
            m.reviews_rejected,
            r.pending,
            r.accepted,
            r.rejected,
            r.dropped,
            self.obs.latency_json(),
        )
    }

    /// The `GET /metrics` body: the same counters and histograms in
    /// Prometheus text exposition format (`text/plain; version=0.0.4`).
    pub fn prometheus_body(&self) -> String {
        let m = self.metrics.snapshot();
        let j = self.jobs.counts();
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, kind: &str, value: usize| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
        };
        counter(
            "cocoon_requests_total",
            "Requests routed, all endpoints.",
            "counter",
            m.requests_total,
        );
        counter(
            "cocoon_responses_4xx_total",
            "Responses with a 4xx status.",
            "counter",
            m.responses_4xx,
        );
        counter(
            "cocoon_responses_5xx_total",
            "Responses with a 5xx status.",
            "counter",
            m.responses_5xx,
        );
        counter(
            "cocoon_connections_accepted_total",
            "Connections accepted into an event loop.",
            "counter",
            m.connections_accepted,
        );
        counter(
            "cocoon_connections_rejected_total",
            "Connections refused with a fast 503 at saturation.",
            "counter",
            m.connections_rejected,
        );
        counter(
            "cocoon_connections_open",
            "Connections open right now.",
            "gauge",
            m.connections_open,
        );
        counter(
            "cocoon_connections_peak",
            "High-water mark of open connections.",
            "gauge",
            m.connections_peak,
        );
        counter(
            "cocoon_work_queue_depth",
            "Complete requests waiting for a worker.",
            "gauge",
            self.work.depth(),
        );
        counter("cocoon_jobs_queued", "Jobs waiting in the async queue.", "gauge", j.queued);
        counter("cocoon_jobs_running", "Jobs being cleaned right now.", "gauge", j.running);
        counter(
            "cocoon_reviews_pending",
            "Low-confidence repairs waiting for a reviewer.",
            "gauge",
            self.reviews.counts().pending,
        );
        counter(
            "cocoon_llm_cache_hits_total",
            "Completion cache hits.",
            "counter",
            self.llm.hits(),
        );
        counter(
            "cocoon_llm_cache_misses_total",
            "Completion cache misses.",
            "counter",
            self.llm.misses(),
        );
        self.obs.prometheus_histograms(&mut out);
        out
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
    /// Binds the listener (nonblocking — it lives in shard 0's poller) and
    /// builds the shared state. The server is not accepting until
    /// [`serve`](Self::serve) runs.
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
    /// calling thread; the event threads, worker pool and job workers are
    /// scoped inside.
    pub fn serve(&self) -> io::Result<()> {
        let state = &self.state;
        std::thread::scope(|scope| {
            for shard_index in 0..state.shards.len() {
                // Shard 0 owns the listener and accepts for everyone.
                let listener = (shard_index == 0).then_some(&self.listener);
                scope.spawn(move || event::event_loop(state, shard_index, listener));
            }
            for _ in 0..self.workers {
                scope.spawn(move || worker_loop(state));
            }
            for _ in 0..self.job_workers {
                scope.spawn(move || job_loop(state));
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

    /// Stops the server. Wedge-free by construction: each event thread is
    /// woken through its shard's eventfd and re-checks the flag (its poll
    /// waits are bounded by the sweep tick regardless), idle workers and
    /// job workers wake from their condvars (and re-check on a 50 ms timer
    /// regardless), busy workers finish their current request first, and
    /// connections still open — parked, mid-parse, or mid-response — are
    /// simply closed.
    pub fn stop(&self) {
        self.state.request_shutdown();
        self.state.jobs.wake_all();
        self.state.work.wake_all();
        for shard in &self.state.shards {
            shard.waker.wake();
        }
    }
}

/// One worker: pop complete requests off the queue, run them, and post the
/// response back to the owning shard, until shutdown. Workers never touch
/// a socket.
fn worker_loop(state: &AppState) {
    while let Some(work) = state.work.pop(|| state.shutdown_requested()) {
        let Work { shard, token, kind, reusable, drain, trace, queued_at } = work;
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
        let response = obs::with_current_trace(current, || match kind {
            WorkKind::Request(request) => api::route(state, &request),
            WorkKind::CsvClean { head, table } => api::route_streamed_csv(state, &head, table),
        });
        if let (Some(trace), Some(handler)) = (&trace, handler) {
            trace.recorder.close(handler, Instant::now());
        }
        state.shards[shard].post(Mail::Done { token, response, reusable, drain });
    }
}

/// Drains the job queue until shutdown. Job results are always rendered as
/// the JSON body a synchronous `/v1/clean` would have returned.
fn job_loop(state: &AppState) {
    while let Some((id, payload, progress)) = state.jobs.next_job(|| state.shutdown_requested()) {
        let outcome = state
            .run_clean(&payload, Some(&progress), Some(id))
            .map(|run| api::clean_response_body(&run, payload.include_rows))
            .map_err(|e| format!("clean failed: {e}"));
        state.jobs.finish(id, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, RequestReader};

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
        let outcome = state
            .run_clean(&payload, Some(&progress), Some(id))
            .map(|run| api::clean_response_body(&run, payload.include_rows))
            .map_err(|e| e.to_string());
        state.jobs.finish(id, outcome);
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
        assert_eq!(connections.get("event_threads").unwrap().as_f64(), Some(1.0));
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

    #[test]
    fn work_queue_bounds_and_wakes() {
        let queue = WorkQueue::new(1);
        assert_eq!(queue.depth(), 0);
        // give_up pops nothing and returns promptly.
        assert!(queue.pop(|| true).is_none());
    }
}
