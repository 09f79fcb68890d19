//! Measurement points the benchmark places around the program's public
//! API, never inside it: a counting wrapper for any `ChatModel` (used
//! above and below the completion cache), a stage observer, a recorder
//! that captures a model's answers, and a replaying stand-in for a hosted
//! model with a fixed round-trip delay.

use cocoon_core::{StageObserver, StageTiming};
use cocoon_llm::{ChatModel, ChatRequest, ChatResponse, LlmError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counters of the calls that crossed one model boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// `complete` / `complete_batch` calls carrying at least one prompt.
    pub calls: u64,
    /// Prompts those calls carried.
    pub prompts: u64,
    /// Prompt tokens of the successful answers.
    pub prompt_tokens: u64,
    /// Completion tokens of the successful answers.
    pub completion_tokens: u64,
}

impl Calls {
    pub fn tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    pub fn since(&self, earlier: &Calls) -> Calls {
        Calls {
            calls: self.calls - earlier.calls,
            prompts: self.prompts - earlier.prompts,
            prompt_tokens: self.prompt_tokens - earlier.prompt_tokens,
            completion_tokens: self.completion_tokens - earlier.completion_tokens,
        }
    }
}

/// One call's wall-clock interval, kept while interval recording is on.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
    pub prompts: usize,
}

/// Wraps a model and counts what passes through it. Counting is a few
/// relaxed atomics; interval recording (for the traced run) is switched
/// on and off between cleans.
pub struct Probe<M> {
    inner: M,
    calls: AtomicU64,
    prompts: AtomicU64,
    prompt_tokens: AtomicU64,
    completion_tokens: AtomicU64,
    recording: AtomicBool,
    intervals: Mutex<Vec<Interval>>,
}

impl<M> Probe<M> {
    pub fn new(inner: M) -> Self {
        Probe {
            inner,
            calls: AtomicU64::new(0),
            prompts: AtomicU64::new(0),
            prompt_tokens: AtomicU64::new(0),
            completion_tokens: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            intervals: Mutex::new(Vec::new()),
        }
    }

    pub fn counts(&self) -> Calls {
        Calls {
            calls: self.calls.load(Ordering::Relaxed),
            prompts: self.prompts.load(Ordering::Relaxed),
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed),
            completion_tokens: self.completion_tokens.load(Ordering::Relaxed),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// The intervals recorded since the last take.
    pub fn take_intervals(&self) -> Vec<Interval> {
        std::mem::take(&mut *self.intervals.lock().expect("probe interval lock"))
    }

    fn note(&self, start: Instant, answers: &[cocoon_llm::Result<ChatResponse>]) {
        if answers.is_empty() {
            return;
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.prompts.fetch_add(answers.len() as u64, Ordering::Relaxed);
        for answer in answers.iter().flatten() {
            self.prompt_tokens.fetch_add(answer.usage.prompt_tokens as u64, Ordering::Relaxed);
            self.completion_tokens
                .fetch_add(answer.usage.completion_tokens as u64, Ordering::Relaxed);
        }
        if self.recording.load(Ordering::Relaxed) {
            let interval = Interval { start, end: Instant::now(), prompts: answers.len() };
            self.intervals.lock().expect("probe interval lock").push(interval);
        }
    }
}

impl<M: ChatModel> ChatModel for Probe<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, request: &ChatRequest) -> cocoon_llm::Result<ChatResponse> {
        let start = Instant::now();
        let answer = self.inner.complete(request);
        self.note(start, std::slice::from_ref(&answer));
        answer
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<cocoon_llm::Result<ChatResponse>> {
        let start = Instant::now();
        let answers = self.inner.complete_batch(requests);
        self.note(start, &answers);
        answers
    }
}

/// Captures every successful answer of the wrapped model by request
/// fingerprint, to fill a [`Replay`] store.
pub struct Recorder<M> {
    inner: M,
    answers: Mutex<HashMap<u64, ChatResponse>>,
}

impl<M> Recorder<M> {
    pub fn new(inner: M) -> Self {
        Recorder { inner, answers: Mutex::new(HashMap::new()) }
    }

    pub fn into_answers(self) -> HashMap<u64, ChatResponse> {
        self.answers.into_inner().expect("recorder lock")
    }

    fn keep(&self, request: &ChatRequest, answer: &cocoon_llm::Result<ChatResponse>) {
        if let Ok(answer) = answer {
            let mut answers = self.answers.lock().expect("recorder lock");
            answers.insert(request.fingerprint(), answer.clone());
        }
    }
}

impl<M: ChatModel> ChatModel for Recorder<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, request: &ChatRequest) -> cocoon_llm::Result<ChatResponse> {
        let answer = self.inner.complete(request);
        self.keep(request, &answer);
        answer
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<cocoon_llm::Result<ChatResponse>> {
        let answers = self.inner.complete_batch(requests);
        for (request, answer) in requests.iter().zip(&answers) {
            self.keep(request, answer);
        }
        answers
    }
}

/// A hosted model as the client sees it: each `complete` or
/// `complete_batch` call costs one fixed round trip, and the answers come
/// from a store recorded during set-up, so the oracle's own compute stays
/// out of the timed path.
pub struct Replay {
    answers: HashMap<u64, ChatResponse>,
    round_trip: Duration,
}

impl Replay {
    pub fn new(answers: HashMap<u64, ChatResponse>, round_trip: Duration) -> Self {
        Replay { answers, round_trip }
    }

    fn answer(&self, request: &ChatRequest) -> cocoon_llm::Result<ChatResponse> {
        self.answers
            .get(&request.fingerprint())
            .cloned()
            .ok_or_else(|| LlmError::Completion("prompt missing from the replay store".into()))
    }
}

impl ChatModel for Replay {
    fn model_name(&self) -> &str {
        "replay"
    }

    fn complete(&self, request: &ChatRequest) -> cocoon_llm::Result<ChatResponse> {
        std::thread::sleep(self.round_trip);
        self.answer(request)
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<cocoon_llm::Result<ChatResponse>> {
        if !requests.is_empty() {
            std::thread::sleep(self.round_trip);
        }
        requests.iter().map(|r| self.answer(r)).collect()
    }
}

/// Collects stage timings with the instant each stage finished, so the
/// stage's interval is `[finished - total, finished]`.
#[derive(Default)]
pub struct StageLog(Mutex<Vec<(Instant, StageTiming)>>);

impl StageLog {
    pub fn take(&self) -> Vec<(Instant, StageTiming)> {
        std::mem::take(&mut *self.0.lock().expect("stage log lock"))
    }
}

impl StageObserver for StageLog {
    fn stage_finished(&self, timing: StageTiming) {
        self.0.lock().expect("stage log lock").push((Instant::now(), timing));
    }
}
