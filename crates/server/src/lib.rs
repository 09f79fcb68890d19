//! # cocoon-server
//!
//! A concurrent HTTP cleaning service over the Cocoon pipeline — the
//! paper's interactive deployment shape (§2.2: users submit tables, review
//! repairs, iterate) as a long-lived process instead of a library call.
//!
//! ## Endpoints
//!
//! | Route | What it does |
//! |---|---|
//! | `POST /v1/clean` | Synchronous clean: CSV (`text/csv`) or JSON table in, cleaned table + ops + SQL script out (JSON, or `text/csv` via `Accept`) |
//! | `POST /v1/jobs` | Submit the same payload asynchronously; returns a job id |
//! | `GET /v1/jobs/{id}` | Poll: status, stage-by-stage progress, result when done (JSON report, or just the cleaned CSV via `Accept: text/csv`) |
//! | `DELETE /v1/jobs/{id}` | Cancel a queued job / free a finished one |
//! | `GET /v1/datasets` | The benchmark catalog (paper Table 1 datasets) |
//! | `GET /v1/metrics` | Request counters, work-queue and connection state (open/peak/reaped/partial writes), LLM cache hit/miss/eviction, dispatcher and job-store state, and per-endpoint / per-stage latency percentiles |
//! | `GET /metrics` | The same counters and latency histograms in Prometheus text exposition format |
//!
//! The full request/response reference lives in `docs/API.md` at the repo
//! root; `docs/ARCHITECTURE.md` traces a request end to end.
//!
//! ## Architecture
//!
//! * [`http`] — vendored mini HTTP/1.1 (no crates.io in the build env), in
//!   the spirit of the `crates/compat` shims: split-read-safe parsing that
//!   suspends losslessly on `WouldBlock` (heads *and* bodies, fixed or
//!   chunked, read incrementally through [`http::BodyProgress`]),
//!   keep-alive, 413 body caps.
//! * [`server`] — a readiness-driven core on a vendored epoll shim
//!   (`crates/compat/poller`): a few event threads own every socket
//!   nonblocking and parse incrementally, so 10k+ idle keep-alive
//!   connections cost no threads and a stalled client costs nothing but
//!   its parked parser state; only *complete* requests cross a bounded
//!   work queue to the fixed worker pool (full queue → immediate 503,
//!   connection cap → refused at accept), plus scoped job workers, all
//!   around one [`server::AppState`].
//! * One process-wide model stack
//!   [`CachedLlm<CoalescingDispatcher<SimLlm>>`](server::SharedLlm):
//!   repeat prompts replay from the LRU-bounded cache, concurrent
//!   identical cold prompts single-flight (within and across batches),
//!   distinct ones batch, and a token bucket bounds what the backend
//!   sees. All of it is observable via `/v1/metrics`.
//! * [`jobs`] — FIFO store polled through [`cocoon_core::RunProgress`]
//!   snapshots; finished jobs bounded by a retention cap *and* a TTL
//!   sweep, and deletable by clients.
//! * [`obs`] — the observability hop over the vendored `cocoon-obs`
//!   crate: every request gets a monotonically-assigned id (echoed as
//!   `X-Request-Id`) and a span tree from socket to LLM batch — head
//!   parse, body/CSV stream, queue wait, handler, per-stage pipeline
//!   timings, batch round-trips, response write. Latency lands in
//!   log-bucketed histograms per endpoint and per stage, exported as
//!   percentiles on `/v1/metrics` and as Prometheus histograms on
//!   `GET /metrics`; `--log-format json` adds a structured access log and
//!   `--slow-request-ms` dumps outlier span trees.
//!
//! Responses are deterministic: with the offline `SimLlm` oracle, a served
//! clean is byte-identical to a direct [`cocoon_core::Cleaner`] run on the
//! same table, whichever ingest format carried it (the root
//! `tests/server_e2e.rs` holds the service to that).

#![warn(missing_docs)]

pub mod api;
mod event;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod obs;
pub mod reviews;
pub mod server;

pub use api::CleanPayload;
pub use http::{Request, Response};
pub use jobs::{DeleteOutcome, JobCounts, JobStatus, JobStore, JobView};
pub use metrics::{Metrics, MetricsSnapshot};
pub use obs::{FinishedTrace, LogFormat, RequestTrace, ServerObs};
pub use reviews::{
    AcceptOutcome, RejectOutcome, ReviewCounts, ReviewStatus, ReviewStore, ReviewView,
};
pub use server::{AppState, Server, ServerConfig, ServerHandle, SharedLlm};
