//! `CoalescingDispatcher` — the request-shaping layer in front of a shared
//! model backend.
//!
//! Once many concurrent callers (server request handlers, job workers)
//! share one backend, the dispatcher decides *what actually reaches it*.
//! Two policies compose here:
//!
//! * **Single-flight coalescing** — concurrent identical requests (same
//!   [`ChatRequest::fingerprint`]) share one in-flight completion: the first
//!   call to register a prompt sends it, later callers wait and receive a
//!   clone of its answer. With a temperature-0 deterministic backend this
//!   is invisible in the output and saves the duplicate calls a cold cache
//!   lets through. It holds within one [`ChatModel::complete_batch`] call
//!   and across concurrent ones, so each distinct prompt reaches the
//!   backend exactly once.
//! * **Token-bucket rate limiting** — every dispatch first takes one token
//!   per distinct prompt from a bucket refilled at
//!   [`RateLimit::per_sec`]; when the bucket is dry the dispatching call
//!   sleeps (callers piggybacking on its flights wait with it), bounding
//!   the request rate the backend sees regardless of caller concurrency.
//!
//! There is one dispatch path: a call sends the prompts it registered
//! first as one backend `complete_batch`, on its own thread, right away —
//! callers already hand the model a whole prompt wave per call, so there
//! is nothing left to merge by waiting. [`complete`](ChatModel::complete)
//! is a one-prompt batch.
//!
//! The dispatcher deliberately does **not** memoise finished answers — that
//! is [`crate::CachedLlm`]'s job; stack them as
//! `CachedLlm::new(CoalescingDispatcher::new(backend, rate_limit))` so
//! repeats hit the cache and only genuine cold misses reach the dispatcher.

use crate::chat::{ChatModel, ChatRequest, ChatResponse};
use crate::error::{LlmError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One backend batch round-trip, delivered to a [`DispatchObserver`] right
/// after the batch resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEvent {
    /// Distinct prompts the dispatched batch carried.
    pub batch_size: usize,
    /// Dispatcher-lifetime coalesced count at dispatch time (same counter
    /// as [`DispatcherStats::coalesced`]).
    pub coalesced_total: usize,
    /// Time the dispatching call slept on the token bucket.
    pub rate_limit_wait: Duration,
    /// Wall time of the backend `complete_batch` call itself.
    pub backend_elapsed: Duration,
}

/// Observer of backend round-trips, attached with
/// [`CoalescingDispatcher::set_observer`].
///
/// The thread contract: the observer fires on the thread of the
/// `complete` / `complete_batch` call that sent the batch, before that call
/// returns and before any caller waiting on the batch's prompts wakes. A
/// batch carries only prompts that call registered first, so a thread-local
/// the caller set (the server's current request trace) names the one
/// caller that sent it. Implementations must be `Send + Sync` and cheap.
pub trait DispatchObserver: Send + Sync {
    /// Called once per backend `complete_batch` call.
    fn batch_dispatched(&self, event: BatchEvent);
}

/// A token-bucket rate limit: sustained `per_sec` requests per second with
/// bursts of up to `burst` requests passing untrottled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained requests per second handed to the backend. Must be > 0.
    pub per_sec: f64,
    /// Bucket capacity: how many requests may pass back-to-back after idle
    /// time. Values below 1 are treated as 1.
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `per_sec` sustained requests/s with `burst` capacity.
    pub fn new(per_sec: f64, burst: f64) -> Self {
        RateLimit { per_sec, burst }
    }
}

/// Counter snapshot; see the field docs for what each counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatcherStats {
    /// Requests that piggybacked on an identical request already in flight
    /// (in-batch duplicates and merges across concurrent calls) — each one
    /// is a completion the backend never saw.
    pub coalesced: usize,
    /// `complete_batch` calls issued to the backend.
    pub batches: usize,
    /// Distinct prompts those batches carried.
    pub batched_prompts: usize,
    /// Dispatches that found the token bucket dry and had to sleep.
    pub rate_limit_waits: usize,
    /// Total time dispatches spent sleeping on the bucket, in milliseconds.
    pub rate_limited_ms: u64,
}

/// One in-flight completion, keyed by request fingerprint.
struct Flight {
    result: Option<Result<ChatResponse>>,
    /// Callers that will read `result`; the last reader removes the entry,
    /// so finished answers are never memoised here (that is the cache's
    /// job) and a later identical request starts a fresh flight.
    waiters: usize,
}

struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

/// The dispatcher; see the module docs for the policy stack. Wraps any
/// [`ChatModel`] and is itself one, so it composes with [`crate::CachedLlm`]
/// and `Transcript` like any other layer.
///
/// ```
/// use cocoon_llm::{ChatModel, ChatRequest, CoalescingDispatcher, RateLimit, ScriptedLlm};
///
/// // The server's shape: a token-bucket limit on what reaches the backend.
/// let limit = RateLimit::new(100.0, 10.0);
/// let dispatcher = CoalescingDispatcher::new(ScriptedLlm::new(["an answer"]), Some(limit));
/// let response = dispatcher.complete(&ChatRequest::simple("prompt")).unwrap();
/// assert_eq!(response.content, "an answer");
/// assert_eq!(dispatcher.stats().batches, 1);
/// ```
pub struct CoalescingDispatcher<M> {
    inner: M,
    /// In-flight completions; `signal` wakes their waiters when results land.
    flights: Mutex<HashMap<u64, Flight>>,
    signal: Condvar,
    bucket: Option<(RateLimit, Mutex<TokenBucket>)>,
    coalesced: AtomicUsize,
    batches: AtomicUsize,
    batched_prompts: AtomicUsize,
    rate_limit_waits: AtomicUsize,
    rate_limited_ns: AtomicU64,
    observer: Mutex<Option<Arc<dyn DispatchObserver>>>,
}

impl<M: ChatModel> CoalescingDispatcher<M> {
    /// A dispatcher in front of `inner`, throttled by `rate_limit` if one
    /// is given.
    pub fn new(inner: M, rate_limit: Option<RateLimit>) -> Self {
        let bucket = rate_limit.map(|limit| {
            let bucket = TokenBucket { tokens: limit.burst.max(1.0), last_refill: Instant::now() };
            (limit, Mutex::new(bucket))
        });
        CoalescingDispatcher {
            inner,
            flights: Mutex::new(HashMap::new()),
            signal: Condvar::new(),
            bucket,
            coalesced: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
            batched_prompts: AtomicUsize::new(0),
            rate_limit_waits: AtomicUsize::new(0),
            rate_limited_ns: AtomicU64::new(0),
            observer: Mutex::new(None),
        }
    }

    /// Attaches a round-trip observer; replaces any previous one.
    pub fn set_observer(&self, observer: Arc<dyn DispatchObserver>) {
        *self.observer.lock().expect("observer lock") = Some(observer);
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Current counter values.
    pub fn stats(&self) -> DispatcherStats {
        DispatcherStats {
            coalesced: self.coalesced.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_prompts: self.batched_prompts.load(Ordering::Relaxed),
            rate_limit_waits: self.rate_limit_waits.load(Ordering::Relaxed),
            rate_limited_ms: self.rate_limited_ns.load(Ordering::Relaxed) / 1_000_000,
        }
    }

    /// Takes `n` tokens from the bucket, sleeping while it is dry. The
    /// demand is clamped to the bucket capacity so an oversized batch
    /// drains the bucket instead of deadlocking on tokens it can never
    /// hold. No-op without a configured rate limit. Returns the total time
    /// slept so dispatch events can report the rate-limit share.
    fn throttle(&self, n: usize) -> Duration {
        let Some((limit, bucket)) = &self.bucket else { return Duration::ZERO };
        let per_sec = limit.per_sec.max(f64::MIN_POSITIVE);
        let capacity = limit.burst.max(1.0);
        let need = (n as f64).min(capacity);
        let mut waited = Duration::ZERO;
        loop {
            let sleep_for = {
                let mut b = bucket.lock().expect("bucket lock");
                let now = Instant::now();
                let refill = now.duration_since(b.last_refill).as_secs_f64() * per_sec;
                b.tokens = (b.tokens + refill).min(capacity);
                b.last_refill = now;
                if b.tokens >= need {
                    b.tokens -= need;
                    None
                } else {
                    Some(Duration::from_secs_f64((need - b.tokens) / per_sec))
                }
            };
            let Some(sleep_for) = sleep_for else { break };
            if waited.is_zero() {
                self.rate_limit_waits.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(sleep_for);
            waited += sleep_for;
        }
        if !waited.is_zero() {
            self.rate_limited_ns.fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        }
        waited
    }

    /// Blocks until `key`'s flight has a result, consumes one waiter slot,
    /// and returns a clone of the result (the last reader removes the
    /// flight).
    fn await_result(
        &self,
        mut flights: MutexGuard<'_, HashMap<u64, Flight>>,
        key: u64,
    ) -> Result<ChatResponse> {
        loop {
            if flights.get(&key).is_some_and(|f| f.result.is_some()) {
                break;
            }
            flights = self.signal.wait(flights).expect("dispatch lock");
        }
        let flight = flights.get_mut(&key).expect("flight exists until last reader");
        let result = flight.result.clone().expect("checked above");
        flight.waiters -= 1;
        if flight.waiters == 0 {
            flights.remove(&key);
        }
        result
    }

    /// The error published for slots a misbehaving backend left unanswered
    /// — every flight must resolve, or its waiters block forever.
    fn short_batch_error() -> LlmError {
        LlmError::Completion("backend returned fewer responses than requests".into())
    }

    /// Runs the backend batch with a panic guard: a panicking backend
    /// becomes per-request errors instead of unwinding the dispatching
    /// call and stranding every waiter (present and future) on unresolved
    /// flights. `AssertUnwindSafe` is sound here — the dispatcher reads
    /// nothing from the backend after a panic, and its own state is only
    /// touched after this returns.
    fn guarded_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.complete_batch(requests)
        }))
        .unwrap_or_else(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            let error = LlmError::Completion(format!("backend panicked: {detail}"));
            requests.iter().map(|_| Err(error.clone())).collect()
        })
    }

    /// Sends the flights a call owns to the backend as one batch
    /// (throttled), tells the observer, then publishes each result to its
    /// flight. A backend that returns fewer responses than requests (the
    /// trait cannot enforce the length) fails the unanswered tail instead
    /// of stranding its waiters.
    fn dispatch(&self, batch: &[(u64, &ChatRequest)]) {
        let rate_limit_wait = self.throttle(batch.len());
        let requests: Vec<ChatRequest> = batch.iter().map(|(_, r)| (*r).clone()).collect();
        let backend_started = Instant::now();
        let mut responses = self.guarded_batch(&requests).into_iter();
        let backend_elapsed = backend_started.elapsed();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_prompts.fetch_add(batch.len(), Ordering::Relaxed);
        let observer = self.observer.lock().expect("observer lock").clone();
        if let Some(observer) = observer {
            observer.batch_dispatched(BatchEvent {
                batch_size: batch.len(),
                coalesced_total: self.coalesced.load(Ordering::Relaxed),
                rate_limit_wait,
                backend_elapsed,
            });
        }
        let mut flights = self.flights.lock().expect("dispatch lock");
        for (key, _) in batch {
            let response = responses.next().unwrap_or_else(|| Err(Self::short_batch_error()));
            if let Some(flight) = flights.get_mut(key) {
                flight.result = Some(response);
            }
        }
        drop(flights);
        self.signal.notify_all();
    }
}

impl<M: ChatModel> ChatModel for CoalescingDispatcher<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    /// A one-prompt [`complete_batch`](ChatModel::complete_batch).
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
        self.complete_batch(std::slice::from_ref(request)).remove(0)
    }

    /// Dedupes identical prompts within the batch (each duplicate counts as
    /// coalesced), then registers the distinct remainder in the
    /// single-flight table. Prompts a concurrent call already has in flight
    /// piggyback on its flight; the rest are this call's to send, as one
    /// backend batch on this thread, at once.
    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        // In-batch dedupe: map every request slot to its first occurrence.
        let mut first_slot: HashMap<u64, usize> = HashMap::with_capacity(requests.len());
        let mut distinct: Vec<(u64, &ChatRequest)> = Vec::with_capacity(requests.len());
        let mut slots: Vec<usize> = Vec::with_capacity(requests.len());
        for request in requests {
            let key = request.fingerprint();
            let slot = match first_slot.get(&key) {
                Some(&slot) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    slot
                }
                None => {
                    let slot = distinct.len();
                    first_slot.insert(key, slot);
                    distinct.push((key, request));
                    slot
                }
            };
            slots.push(slot);
        }

        // Cross-call single-flight: prompts already in flight (registered
        // by a concurrent call) are piggybacked; the rest become flights
        // owned by this call.
        let mut owned: Vec<(u64, &ChatRequest)> = Vec::with_capacity(distinct.len());
        {
            let mut flights = self.flights.lock().expect("dispatch lock");
            for &(key, request) in &distinct {
                match flights.get_mut(&key) {
                    Some(flight) => {
                        flight.waiters += 1;
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        flights.insert(key, Flight { result: None, waiters: 1 });
                        owned.push((key, request));
                    }
                }
            }
        }
        if !owned.is_empty() {
            self.dispatch(&owned);
        }

        // Collect each distinct prompt's result (piggybacked flights may
        // resolve later, so this can block on the other call's dispatch),
        // then scatter to the original slots.
        let results: Vec<Result<ChatResponse>> = distinct
            .iter()
            .map(|(key, _)| self.await_result(self.flights.lock().expect("dispatch lock"), *key))
            .collect();
        slots.into_iter().map(|i| results[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::ScriptedLlm;
    use std::sync::atomic::AtomicUsize;

    /// Records the size of every batch the backend receives and answers
    /// each prompt deterministically by echoing it.
    struct EchoBackend {
        batch_sizes: Mutex<Vec<usize>>,
        calls: AtomicUsize,
    }

    impl EchoBackend {
        fn new() -> Self {
            EchoBackend { batch_sizes: Mutex::new(Vec::new()), calls: AtomicUsize::new(0) }
        }
    }

    impl ChatModel for EchoBackend {
        fn model_name(&self) -> &str {
            "echo"
        }

        fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(ChatResponse {
                content: format!("echo: {}", request.user_text()),
                usage: Default::default(),
            })
        }

        fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
            self.batch_sizes.lock().unwrap().push(requests.len());
            requests.iter().map(|r| self.complete(r)).collect()
        }
    }

    #[test]
    fn single_request_passes_through() {
        let d = CoalescingDispatcher::new(EchoBackend::new(), None);
        let out = d.complete(&ChatRequest::simple("hello")).unwrap();
        assert_eq!(out.content, "echo: hello");
        let stats = d.stats();
        assert_eq!(stats.coalesced, 0);
        assert_eq!((stats.batches, stats.batched_prompts), (1, 1));
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        // The first caller's prompt is held inside the gated backend until
        // the other three have joined its flight.
        let d = CoalescingDispatcher::new(GatedBackend::new(), None);
        let d = &d;
        let answers: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| d.complete(&ChatRequest::simple("same")).unwrap().content))
                .collect();
            d.inner().wait_until(|| d.stats().coalesced >= 3);
            d.inner().release.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(answers.iter().all(|a| a == "echo: same"));
        let stats = d.stats();
        assert_eq!(stats.coalesced, 3, "three followers piggybacked");
        assert_eq!(d.inner().batch_sizes.lock().unwrap().as_slice(), &[1], "backend saw one call");
    }

    #[test]
    fn batch_calls_dedupe_identical_prompts() {
        let d = CoalescingDispatcher::new(EchoBackend::new(), None);
        let requests = vec![
            ChatRequest::simple("a"),
            ChatRequest::simple("b"),
            ChatRequest::simple("a"),
            ChatRequest::simple("a"),
        ];
        let responses = d.complete_batch(&requests);
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].as_ref().unwrap().content, "echo: a");
        assert_eq!(responses[2].as_ref().unwrap().content, "echo: a");
        let stats = d.stats();
        assert_eq!(stats.coalesced, 2, "two duplicate 'a' prompts merged");
        assert_eq!(d.inner().batch_sizes.lock().unwrap().as_slice(), &[2]);
    }

    /// Echoes prompts like [`EchoBackend`], but holds every batch inside
    /// the backend until the test releases the gate — so a second caller
    /// provably arrives while the first batch is still in flight.
    struct GatedBackend {
        entered: AtomicUsize,
        release: std::sync::atomic::AtomicBool,
        batch_sizes: Mutex<Vec<usize>>,
    }

    impl GatedBackend {
        fn new() -> Self {
            GatedBackend {
                entered: AtomicUsize::new(0),
                release: std::sync::atomic::AtomicBool::new(false),
                batch_sizes: Mutex::new(Vec::new()),
            }
        }

        fn wait_until(&self, what: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !what() {
                assert!(Instant::now() < deadline, "gated backend timed out");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl ChatModel for GatedBackend {
        fn model_name(&self) -> &str {
            "gated"
        }

        fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
            Ok(ChatResponse {
                content: format!("echo: {}", request.user_text()),
                usage: Default::default(),
            })
        }

        fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
            self.entered.fetch_add(1, Ordering::Relaxed);
            self.wait_until(|| self.release.load(Ordering::Relaxed));
            self.batch_sizes.lock().unwrap().push(requests.len());
            requests.iter().map(|r| self.complete(r)).collect()
        }
    }

    #[test]
    fn concurrent_identical_batches_single_flight() {
        // Two identical batches, the second arriving while the first is
        // provably still inside the backend. Cross-batch single-flight must
        // dispatch each distinct prompt exactly once: the first batch owns
        // the flights, the second piggybacks on them.
        let d = CoalescingDispatcher::new(GatedBackend::new(), None);
        let d = &d;
        let requests: Vec<ChatRequest> =
            (0..4).map(|i| ChatRequest::simple(format!("p{i}"))).collect();
        let (first, second) = std::thread::scope(|s| {
            let first = {
                let requests = requests.clone();
                s.spawn(move || d.complete_batch(&requests))
            };
            // Wait until the first batch is inside the backend…
            d.inner().wait_until(|| d.inner().entered.load(Ordering::Relaxed) >= 1);
            let second = {
                let requests = requests.clone();
                s.spawn(move || d.complete_batch(&requests))
            };
            // …and until the second has registered (its piggybacks show up
            // in the coalesced counter), then let the backend answer.
            d.inner().wait_until(|| d.stats().coalesced >= 4);
            d.inner().release.store(true, Ordering::Relaxed);
            (first.join().unwrap(), second.join().unwrap())
        });
        for responses in [&first, &second] {
            assert_eq!(responses.len(), 4);
            for (i, r) in responses.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap().content, format!("echo: p{i}"));
            }
        }
        let sizes = d.inner().batch_sizes.lock().unwrap().clone();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            4,
            "each distinct prompt reaches the backend exactly once across both batches: {sizes:?}"
        );
        assert_eq!(d.stats().coalesced, 4, "the second batch piggybacked all four prompts");
        assert_eq!(d.stats().batches, 1);
    }

    #[test]
    fn sequential_identical_batches_both_dispatch() {
        // Cross-batch single-flight is not a cache: once the first batch's
        // flights resolve and drain, a later identical batch re-dispatches.
        let d = CoalescingDispatcher::new(EchoBackend::new(), None);
        let requests = vec![ChatRequest::simple("a"), ChatRequest::simple("b")];
        d.complete_batch(&requests);
        d.complete_batch(&requests);
        assert_eq!(d.inner().batch_sizes.lock().unwrap().iter().sum::<usize>(), 4);
        assert_eq!(d.stats().coalesced, 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let d = CoalescingDispatcher::new(EchoBackend::new(), None);
        assert!(d.complete_batch(&[]).is_empty());
        assert_eq!(d.stats().batches, 0);
    }

    #[test]
    fn rate_limit_enforces_waits() {
        let d = CoalescingDispatcher::new(EchoBackend::new(), Some(RateLimit::new(50.0, 1.0)));
        let start = Instant::now();
        d.complete(&ChatRequest::simple("first")).unwrap(); // burst token
        d.complete(&ChatRequest::simple("second")).unwrap(); // must wait ~20ms
        let elapsed = start.elapsed();
        let stats = d.stats();
        assert!(stats.rate_limit_waits >= 1, "second dispatch found the bucket dry");
        assert!(
            elapsed >= Duration::from_millis(10),
            "a 50/s limit must delay the second call: {elapsed:?}"
        );
        assert!(stats.rate_limited_ms >= 10);
    }

    #[test]
    fn oversized_batch_does_not_deadlock_on_a_small_bucket() {
        let d = CoalescingDispatcher::new(EchoBackend::new(), Some(RateLimit::new(1000.0, 2.0)));
        let requests: Vec<ChatRequest> =
            (0..8).map(|i| ChatRequest::simple(format!("p{i}"))).collect();
        let responses = d.complete_batch(&requests);
        assert_eq!(responses.len(), 8);
        assert!(responses.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn errors_propagate_per_request() {
        // Scripted backend with one answer: second distinct prompt gets
        // Empty, and the error reaches exactly its caller.
        let d = CoalescingDispatcher::new(ScriptedLlm::new(["only"]), None);
        assert!(d.complete(&ChatRequest::simple("a")).is_ok());
        assert!(d.complete(&ChatRequest::simple("b")).is_err());
    }

    /// Misbehaves by answering only the first request of every batch.
    struct ShortBatchBackend;

    impl ChatModel for ShortBatchBackend {
        fn model_name(&self) -> &str {
            "short"
        }

        fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
            Ok(ChatResponse { content: request.user_text(), usage: Default::default() })
        }

        fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
            requests.iter().take(1).map(|r| self.complete(r)).collect()
        }
    }

    #[test]
    fn short_batch_responses_fail_the_tail_instead_of_hanging() {
        // The backend answers one of two prompts: the scatter must neither
        // panic nor drop the unanswered slot, and its flight must resolve.
        let d = CoalescingDispatcher::new(ShortBatchBackend, None);
        let responses = d.complete_batch(&[ChatRequest::simple("a"), ChatRequest::simple("b")]);
        assert_eq!(responses.len(), 2);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_err());
    }

    /// Panics on every batch — models a backend bug.
    struct PanickingBackend;

    impl ChatModel for PanickingBackend {
        fn model_name(&self) -> &str {
            "panicking"
        }

        fn complete(&self, _request: &ChatRequest) -> Result<ChatResponse> {
            panic!("backend exploded");
        }

        fn complete_batch(&self, _requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
            panic!("backend exploded");
        }
    }

    #[test]
    fn backend_panics_become_errors_not_hangs() {
        let d = CoalescingDispatcher::new(PanickingBackend, None);
        let err = d.complete(&ChatRequest::simple("p")).unwrap_err();
        assert!(err.to_string().contains("backend exploded"), "{err}");
        // The flight was cleaned up: a retry dispatches again (and errors
        // again) instead of hanging on a dead flight.
        assert!(d.complete(&ChatRequest::simple("p")).is_err());
        // Batch path survives too.
        let responses = d.complete_batch(&[ChatRequest::simple("a")]);
        assert!(responses[0].is_err());
    }

    #[test]
    fn observer_sees_every_backend_round_trip() {
        struct Collect(Mutex<Vec<BatchEvent>>);
        impl DispatchObserver for Collect {
            fn batch_dispatched(&self, event: BatchEvent) {
                self.0.lock().unwrap().push(event);
            }
        }
        let d = CoalescingDispatcher::new(EchoBackend::new(), None);
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        d.set_observer(collect.clone());
        d.complete(&ChatRequest::simple("one")).unwrap();
        d.complete_batch(&[
            ChatRequest::simple("a"),
            ChatRequest::simple("b"),
            ChatRequest::simple("a"),
        ]);
        let events = collect.0.lock().unwrap().clone();
        assert_eq!(events.len(), 2, "one event per backend call");
        assert_eq!(events[0].batch_size, 1);
        assert_eq!(events[1].batch_size, 2, "in-batch duplicate deduped before dispatch");
        assert_eq!(events[1].coalesced_total, 1);
        assert!(events.iter().all(|e| e.rate_limit_wait.is_zero()), "no limit configured");
    }

    #[test]
    fn observer_reports_rate_limit_sleeps() {
        struct Collect(Mutex<Vec<BatchEvent>>);
        impl DispatchObserver for Collect {
            fn batch_dispatched(&self, event: BatchEvent) {
                self.0.lock().unwrap().push(event);
            }
        }
        let d = CoalescingDispatcher::new(EchoBackend::new(), Some(RateLimit::new(50.0, 1.0)));
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        d.set_observer(collect.clone());
        d.complete(&ChatRequest::simple("first")).unwrap();
        d.complete(&ChatRequest::simple("second")).unwrap();
        let events = collect.0.lock().unwrap().clone();
        assert_eq!(events.len(), 2);
        assert!(events[1].rate_limit_wait >= Duration::from_millis(10), "{events:?}");
    }

    #[test]
    fn observer_fires_on_the_thread_that_sent_the_batch() {
        // The contract the server's trace attribution rests on. Two callers
        // tag their threads; the second arrives while the first's batch is
        // held inside the backend, and shares one prompt with it. Each
        // batch is observed on the thread that sent it, and the shared
        // prompt rides only in the first caller's batch.
        thread_local! {
            static CALLER: std::cell::Cell<&'static str> = const { std::cell::Cell::new("none") };
        }
        struct ByCaller(Mutex<Vec<(&'static str, usize)>>);
        impl DispatchObserver for ByCaller {
            fn batch_dispatched(&self, event: BatchEvent) {
                self.0.lock().unwrap().push((CALLER.with(|c| c.get()), event.batch_size));
            }
        }
        let d = CoalescingDispatcher::new(GatedBackend::new(), None);
        let seen = Arc::new(ByCaller(Mutex::new(Vec::new())));
        d.set_observer(seen.clone());
        let d = &d;
        let call = |caller: &'static str, prompts: [&str; 2]| {
            CALLER.with(|c| c.set(caller));
            let requests = prompts.map(ChatRequest::simple);
            d.complete_batch(&requests).into_iter().map(|r| r.unwrap().content).collect::<Vec<_>>()
        };
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| call("first", ["a", "b"]));
            d.inner().wait_until(|| d.inner().entered.load(Ordering::Relaxed) >= 1);
            let second = s.spawn(|| call("second", ["b", "c"]));
            // The second call joins the first's "b" and sends "c" itself.
            d.inner().wait_until(|| d.inner().entered.load(Ordering::Relaxed) >= 2);
            d.inner().release.store(true, Ordering::Relaxed);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(first, ["echo: a", "echo: b"]);
        assert_eq!(second, ["echo: b", "echo: c"]);
        let mut events = seen.0.lock().unwrap().clone();
        events.sort_unstable();
        assert_eq!(events, [("first", 2), ("second", 1)]);
        assert_eq!(d.stats().coalesced, 1);
    }

    #[test]
    fn sequential_identical_requests_are_not_memoised() {
        // The dispatcher is not a cache: once a flight's waiters have all
        // read, an identical later request dispatches again.
        let d = CoalescingDispatcher::new(EchoBackend::new(), None);
        d.complete(&ChatRequest::simple("again")).unwrap();
        d.complete(&ChatRequest::simple("again")).unwrap();
        assert_eq!(d.inner().calls.load(Ordering::Relaxed), 2);
        assert_eq!(d.stats().coalesced, 0);
    }
}
