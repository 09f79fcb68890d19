//! Server metrics: the request and connection counters, and `FIGURES`,
//! the one list of every figure `GET /v1/metrics` and `GET /metrics` export.
//!
//! Counters are plain relaxed atomics: a render racing a concurrent
//! request may be one count stale, never torn. Everything else a figure
//! shows (LLM cache and dispatcher figures, queue depths, job and review
//! censuses) is read live from its owner at render time, not mirrored
//! here. Both renderers loop over `FIGURES`, and over the latency
//! histograms through one [`ServerObs`](crate::obs::ServerObs) accessor,
//! so the two outputs cannot drift apart: adding a counter takes one
//! [`Counter`] variant and one `FIGURES` entry.

use crate::jobs::JobCounts;
use crate::reviews::ReviewCounts;
use crate::server::AppState;
use cocoon_llm::{ChatModel, DispatcherStats, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every counter [`Metrics`] holds; each variant indexes one atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// All requests routed, across every endpoint.
    Requests,
    /// `POST /v1/clean` requests.
    CleanRequests,
    /// `POST /v1/jobs` submissions (including refused ones).
    JobsSubmitted,
    /// `GET /v1/jobs/{id}` polls.
    JobsPolled,
    /// `DELETE /v1/jobs/{id}` requests (including refused ones).
    JobsDeleted,
    /// `GET /v1/datasets` requests.
    DatasetRequests,
    /// `GET /v1/metrics` and `GET /metrics` requests.
    MetricsRequests,
    /// Responses with a 4xx status.
    Responses4xx,
    /// Responses with a 5xx status.
    Responses5xx,
    /// Handlers and job cleans that panicked (answered 500 or failed).
    HandlerPanics,
    /// Connections the event loop accepted and registered.
    ConnectionsAccepted,
    /// Connections and requests refused with a fast 503 at saturation.
    ConnectionsRejected,
    /// Connections open right now (a gauge).
    ConnectionsOpen,
    /// High-water mark of [`ConnectionsOpen`](Self::ConnectionsOpen).
    ConnectionsPeak,
    /// Connections the idle sweep reclaimed — the slow-loris counter.
    IdleReaped,
    /// Responses that needed more than one write pass.
    PartialWrites,
    /// `GET /v1/reviews` listings.
    ReviewsListed,
    /// `POST /v1/reviews/{id}/accept` requests (conflicts and misses too).
    ReviewAccepts,
    /// `POST /v1/reviews/{id}/reject` requests (conflicts and misses too).
    ReviewRejects,
}

/// One atomic per [`Counter`] variant: the last variant's index + 1.
const COUNTERS: usize = Counter::ReviewRejects as usize + 1;

/// Per-endpoint, per-status and per-connection accounting.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicUsize; COUNTERS],
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds one to `counter`.
    pub fn count(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> usize {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Buckets a response status (4xx/5xx; success statuses count nothing).
    pub fn count_status(&self, status: u16) {
        match status {
            400..=499 => self.count(Counter::Responses4xx),
            500..=599 => self.count(Counter::Responses5xx),
            _ => {}
        }
    }

    /// Registers a connection entering an event loop: bumps the open gauge
    /// and folds it into the peak with an explicit compare-and-swap loop —
    /// each raiser only ever replaces a *smaller* observed peak, so
    /// concurrent opens can interleave in any order without the high-water
    /// mark under-counting.
    pub fn conn_opened(&self) {
        let open =
            self.counters[Counter::ConnectionsOpen as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let peak = &self.counters[Counter::ConnectionsPeak as usize];
        let mut seen = peak.load(Ordering::Relaxed);
        while seen < open {
            match peak.compare_exchange_weak(seen, open, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(current) => seen = current,
            }
        }
    }

    /// Registers a connection leaving an event loop.
    pub fn conn_closed(&self) {
        self.counters[Counter::ConnectionsOpen as usize].fetch_sub(1, Ordering::Relaxed);
    }
}

/// A figure's Prometheus series: name, type and help text.
struct Series {
    /// `cocoon_<section>_<key>`, `_total` on counters; the 13 series that
    /// predate this list keep their historical names.
    name: &'static str,
    /// `"counter"` (only ever rises) or `"gauge"` (a live value).
    kind: &'static str,
    /// The `# HELP` text.
    help: &'static str,
}

/// The live sources one render reads. Each lock-guarded census is taken
/// once, so the figures drawn from it agree with each other.
struct Sources<'a> {
    state: &'a AppState,
    jobs: JobCounts,
    reviews: ReviewCounts,
    dispatcher: DispatcherStats,
}

impl<'a> Sources<'a> {
    fn read(state: &'a AppState) -> Self {
        Sources {
            state,
            jobs: state.jobs.counts(),
            reviews: state.reviews.counts(),
            dispatcher: state.llm.inner().stats(),
        }
    }

    fn count(&self, counter: Counter) -> Json {
        num(self.state.metrics.get(counter))
    }
}

fn num(value: usize) -> Json {
    Json::Number(value as f64)
}

/// One exported figure.
struct Figure {
    /// Dotted path in the `/v1/metrics` JSON (`"llm.dispatcher.batches"`).
    path: &'static str,
    /// The Prometheus series; `None` marks a JSON-only figure.
    series: Option<Series>,
    /// Reads the value: a number, `null` (JSON-only at that moment: no
    /// Prometheus sample) or a string (JSON-only).
    read: fn(&Sources<'_>) -> Json,
}

const fn counter(
    path: &'static str,
    name: &'static str,
    help: &'static str,
    read: fn(&Sources<'_>) -> Json,
) -> Figure {
    Figure { path, series: Some(Series { name, kind: "counter", help }), read }
}

const fn gauge(
    path: &'static str,
    name: &'static str,
    help: &'static str,
    read: fn(&Sources<'_>) -> Json,
) -> Figure {
    Figure { path, series: Some(Series { name, kind: "gauge", help }), read }
}

/// Every exported figure, in `/v1/metrics` section order. Kept as a table:
/// one entry per figure, path and series on the first line, help text and
/// reader on the second.
#[rustfmt::skip]
static FIGURES: &[Figure] = &[
    counter("requests.total", "cocoon_requests_total",
        "Requests routed, all endpoints.", |s| s.count(Counter::Requests)),
    counter("requests.clean", "cocoon_requests_clean_total",
        "POST /v1/clean requests.", |s| s.count(Counter::CleanRequests)),
    counter("requests.jobs_submitted", "cocoon_requests_jobs_submitted_total",
        "POST /v1/jobs submissions, refused ones included.", |s| s.count(Counter::JobsSubmitted)),
    counter("requests.jobs_polled", "cocoon_requests_jobs_polled_total",
        "GET /v1/jobs/{id} polls.", |s| s.count(Counter::JobsPolled)),
    counter("requests.jobs_deleted", "cocoon_requests_jobs_deleted_total",
        "DELETE /v1/jobs/{id} requests, refused ones included.", |s| s.count(Counter::JobsDeleted)),
    counter("requests.datasets", "cocoon_requests_datasets_total",
        "GET /v1/datasets requests.", |s| s.count(Counter::DatasetRequests)),
    counter("requests.metrics", "cocoon_requests_metrics_total",
        "GET /v1/metrics and GET /metrics requests.", |s| s.count(Counter::MetricsRequests)),
    counter("requests.responses_4xx", "cocoon_responses_4xx_total",
        "Responses with a 4xx status.", |s| s.count(Counter::Responses4xx)),
    counter("requests.responses_5xx", "cocoon_responses_5xx_total",
        "Responses with a 5xx status.", |s| s.count(Counter::Responses5xx)),
    counter("requests.handler_panics", "cocoon_handler_panics_total",
        "Handlers and job cleans that panicked.", |s| s.count(Counter::HandlerPanics)),
    counter("accept.accepted", "cocoon_connections_accepted_total",
        "Connections accepted into an event loop.", |s| s.count(Counter::ConnectionsAccepted)),
    counter("accept.rejected_busy", "cocoon_connections_rejected_total",
        "Connections refused with a fast 503 at saturation.",
        |s| s.count(Counter::ConnectionsRejected)),
    gauge("accept.queue_depth", "cocoon_work_queue_depth",
        "Complete requests waiting for a worker.", |s| num(s.state.work.depth())),
    gauge("accept.queue_capacity", "cocoon_accept_queue_capacity",
        "Complete requests allowed to wait for a worker.", |s| num(s.state.work.capacity)),
    gauge("connections.open", "cocoon_connections_open",
        "Connections open right now.", |s| s.count(Counter::ConnectionsOpen)),
    gauge("connections.peak", "cocoon_connections_peak",
        "High-water mark of open connections.", |s| s.count(Counter::ConnectionsPeak)),
    counter("connections.idle_reaped", "cocoon_connections_idle_reaped_total",
        "Connections closed for sitting idle past the timeout.", |s| s.count(Counter::IdleReaped)),
    counter("connections.partial_writes", "cocoon_connections_partial_writes_total",
        "Responses finished on write-readiness.", |s| s.count(Counter::PartialWrites)),
    Figure { path: "llm.model", series: None,
        read: |s| Json::String(s.state.llm.model_name().to_string()) },
    counter("llm.cache_hits", "cocoon_llm_cache_hits_total",
        "Completion cache hits.", |s| num(s.state.llm.hits())),
    counter("llm.cache_misses", "cocoon_llm_cache_misses_total",
        "Completion cache misses.", |s| num(s.state.llm.misses())),
    counter("llm.cache_evictions", "cocoon_llm_cache_evictions_total",
        "Completion cache entries evicted by the LRU bound.", |s| num(s.state.llm.evictions())),
    gauge("llm.cached_responses", "cocoon_llm_cached_responses",
        "Completions cached right now.", |s| num(s.state.llm.len())),
    gauge("llm.cache_capacity", "cocoon_llm_cache_capacity",
        "Completion cache entry bound.", |s| s.state.llm.capacity().map_or(Json::Null, num)),
    counter("llm.dispatcher.coalesced", "cocoon_llm_dispatcher_coalesced_total",
        "Prompts merged into an identical pending prompt.", |s| num(s.dispatcher.coalesced)),
    counter("llm.dispatcher.batches", "cocoon_llm_dispatcher_batches_total",
        "Batch calls issued to the model backend.", |s| num(s.dispatcher.batches)),
    counter("llm.dispatcher.batched_prompts", "cocoon_llm_dispatcher_batched_prompts_total",
        "Distinct prompts the batch calls carried.", |s| num(s.dispatcher.batched_prompts)),
    counter("llm.dispatcher.rate_limit_waits", "cocoon_llm_dispatcher_rate_limit_waits_total",
        "Dispatches that slept on the token bucket.", |s| num(s.dispatcher.rate_limit_waits)),
    counter("llm.dispatcher.rate_limited_ms", "cocoon_llm_dispatcher_rate_limited_ms_total",
        "Milliseconds slept on the token bucket.",
        |s| Json::Number(s.dispatcher.rate_limited_ms as f64)),
    gauge("jobs.queued", "cocoon_jobs_queued",
        "Jobs waiting in the async queue.", |s| num(s.jobs.queued)),
    gauge("jobs.running", "cocoon_jobs_running",
        "Jobs being cleaned right now.", |s| num(s.jobs.running)),
    gauge("jobs.done", "cocoon_jobs_done",
        "Finished jobs retained for polling.", |s| num(s.jobs.done)),
    gauge("jobs.failed", "cocoon_jobs_failed",
        "Failed jobs retained for polling.", |s| num(s.jobs.failed)),
    counter("jobs.expired", "cocoon_jobs_expired_total",
        "Finished jobs removed by the TTL sweep.", |s| num(s.jobs.expired)),
    counter("jobs.deleted", "cocoon_jobs_deleted_total",
        "Jobs removed by DELETE /v1/jobs/{id}.", |s| num(s.jobs.deleted)),
    gauge("jobs.queue_depth", "cocoon_jobs_queue_depth",
        "Jobs waiting for a job worker.", |s| num(s.state.jobs.depth())),
    counter("reviews.listed", "cocoon_reviews_listed_total",
        "GET /v1/reviews requests.", |s| s.count(Counter::ReviewsListed)),
    counter("reviews.accept_requests", "cocoon_reviews_accept_requests_total",
        "Review accepts, conflicts and misses included.", |s| s.count(Counter::ReviewAccepts)),
    counter("reviews.reject_requests", "cocoon_reviews_reject_requests_total",
        "Review rejects, conflicts and misses included.", |s| s.count(Counter::ReviewRejects)),
    gauge("reviews.pending", "cocoon_reviews_pending",
        "Low-confidence repairs waiting for a reviewer.", |s| num(s.reviews.pending)),
    gauge("reviews.accepted", "cocoon_reviews_accepted",
        "Accepted review items retained.", |s| num(s.reviews.accepted)),
    gauge("reviews.rejected", "cocoon_reviews_rejected",
        "Rejected review items retained.", |s| num(s.reviews.rejected)),
    counter("reviews.dropped", "cocoon_reviews_dropped_total",
        "Review runs removed by eviction, expiry or job deletion.", |s| num(s.reviews.dropped)),
];

impl AppState {
    /// The `/v1/metrics` body: every `FIGURES` entry at its JSON path,
    /// plus the `latency` section.
    pub fn metrics_body(&self) -> String {
        let sources = Sources::read(self);
        let mut root = BTreeMap::from([("latency".to_string(), self.obs.latency_json())]);
        for figure in FIGURES {
            let (sections, key) = figure.path.rsplit_once('.').expect("figure paths are nested");
            let mut node = &mut root;
            for section in sections.split('.') {
                let child = node
                    .entry(section.to_string())
                    .or_insert_with(|| Json::Object(BTreeMap::new()));
                let Json::Object(members) = child else {
                    unreachable!("{section} is a section, never a figure")
                };
                node = members;
            }
            node.insert(key.to_string(), (figure.read)(&sources));
        }
        Json::Object(root).to_string()
    }

    /// The `GET /metrics` body: one sample per numeric `FIGURES` entry,
    /// then the latency histograms, in Prometheus text exposition format
    /// (`text/plain; version=0.0.4`).
    pub fn prometheus_body(&self) -> String {
        let sources = Sources::read(self);
        let mut out = String::with_capacity(8192);
        for figure in FIGURES {
            let value = (figure.read)(&sources);
            let (Some(Series { name, kind, help }), Json::Number(_)) = (&figure.series, &value)
            else {
                continue;
            };
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
        }
        self.obs.prometheus_histograms(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.count(Counter::Requests);
        m.count(Counter::Requests);
        m.count(Counter::CleanRequests);
        m.count(Counter::ConnectionsAccepted);
        m.count(Counter::ConnectionsRejected);
        m.count(Counter::JobsDeleted);
        m.count(Counter::ReviewsListed);
        m.count(Counter::ReviewAccepts);
        m.count(Counter::ReviewRejects);
        m.count_status(200);
        m.count_status(404);
        m.count_status(500);
        assert_eq!(m.get(Counter::Requests), 2);
        assert_eq!(m.get(Counter::CleanRequests), 1);
        assert_eq!(
            (m.get(Counter::ConnectionsAccepted), m.get(Counter::ConnectionsRejected)),
            (1, 1)
        );
        assert_eq!(m.get(Counter::JobsDeleted), 1);
        assert_eq!(
            (
                m.get(Counter::ReviewsListed),
                m.get(Counter::ReviewAccepts),
                m.get(Counter::ReviewRejects)
            ),
            (1, 1, 1)
        );
        assert_eq!((m.get(Counter::Responses4xx), m.get(Counter::Responses5xx)), (1, 1));
    }

    #[test]
    fn open_gauge_tracks_peak() {
        let m = Metrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_opened();
        assert_eq!(m.get(Counter::ConnectionsOpen), 3);
        m.conn_closed();
        m.conn_closed();
        assert_eq!((m.get(Counter::ConnectionsOpen), m.get(Counter::ConnectionsPeak)), (1, 3));
        m.count(Counter::IdleReaped);
        m.count(Counter::PartialWrites);
        assert_eq!((m.get(Counter::IdleReaped), m.get(Counter::PartialWrites)), (1, 1));
    }

    #[test]
    fn concurrent_opens_never_undercount_the_peak() {
        // All opens strictly precede all closes, so the true high-water
        // mark is exactly the total open count; the CAS loop must land on
        // it whatever the interleaving.
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        m.conn_opened();
                    }
                });
            }
        });
        assert_eq!(m.get(Counter::ConnectionsPeak), 4000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        m.conn_closed();
                    }
                });
            }
        });
        assert_eq!(
            (m.get(Counter::ConnectionsOpen), m.get(Counter::ConnectionsPeak)),
            (0, 4000),
            "peak survives closes"
        );
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.count(Counter::Requests);
                    }
                });
            }
        });
        assert_eq!(m.get(Counter::Requests), 4000);
    }
}
