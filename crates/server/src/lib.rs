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
//! | `GET /v1/reviews` | Repairs withheld below the confidence threshold, awaiting a reviewer |
//! | `POST /v1/reviews/{id}/accept` / `…/reject` | Apply / retire one withheld repair |
//! | `GET /v1/datasets` | The benchmark catalog (paper Table 1 datasets) |
//! | `GET /v1/metrics` | Request counters, work-queue and connection state (open/peak/reaped/partial writes), LLM cache hit/miss/eviction, dispatcher, job-store and review-queue state, and per-endpoint / per-stage latency percentiles |
//! | `GET /metrics` | Every numeric `/v1/metrics` figure as one Prometheus series, plus the latency histograms, in text exposition format (only the model name and an unbounded cache capacity stay JSON-only) |
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
//!   (`crates/compat/poller`): one event thread owns every socket
//!   nonblocking and frames requests incrementally, so 10k+ idle
//!   keep-alive connections cost no threads and a stalled client costs
//!   nothing but its parked parser state; only *complete* requests cross
//!   a bounded work queue to the fixed worker pool, which parses their
//!   bodies (full queue → immediate 503, connection cap → refused at
//!   accept), plus scoped job workers, all around one
//!   [`server::AppState`].
//! * One process-wide model stack
//!   [`CachedLlm<CoalescingDispatcher<SimLlm>>`](server::SharedLlm):
//!   repeat prompts replay from the LRU-bounded cache, concurrent
//!   identical cold prompts single-flight (within and across batches),
//!   and a token bucket bounds what the backend sees. Each batch goes out
//!   on the thread of the clean that asked for it, one per prompt wave.
//!   All of it is observable via `/v1/metrics`.
//! * [`metrics`] — the counters and the one list that declares every
//!   exported figure (JSON path, Prometheus series, how it is read); both
//!   metrics endpoints render that list.
//! * [`jobs`] — FIFO store polled through [`cocoon_core::RunProgress`]
//!   snapshots; finished jobs bounded by a retention cap *and* a TTL
//!   sweep, and deletable by clients.
//! * [`obs`] — the observability hop over the vendored `cocoon-obs`
//!   crate: every request gets a monotonically-assigned id (echoed as
//!   `X-Request-Id`) and a span tree from socket to LLM batch — head
//!   parse, body read, queue wait, handler, per-stage pipeline
//!   timings, the round-trips of the LLM batches the request itself sent,
//!   response write. Latency lands in
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
pub use metrics::{Counter, Metrics};
pub use obs::{FinishedTrace, LogFormat, RequestTrace, ServerObs};
pub use reviews::{
    AcceptOutcome, RejectOutcome, ReviewCounts, ReviewStatus, ReviewStore, ReviewView,
};
pub use server::{AppState, Server, ServerConfig, ServerHandle, SharedLlm};
