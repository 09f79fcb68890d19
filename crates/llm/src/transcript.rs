//! Call transcripts: a recording wrapper around any [`ChatModel`].
//!
//! Cocoon is a human-in-the-loop system; its UI shows the LLM reasoning for
//! every step (Appendix A). The transcript captures each exchange so reports
//! can replay what the model was asked and answered, and so benches can
//! account token usage and model round trips.

use crate::chat::{ChatModel, ChatRequest, ChatResponse, Usage};
use crate::error::Result;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One recorded exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// The user-visible prompt text.
    pub prompt: String,
    /// The model's answer.
    pub response: String,
    /// Token accounting for the exchange.
    pub usage: Usage,
}

/// Records every exchange passing through an inner model, and counts the
/// model round trips that carried them.
///
/// A round trip is one `complete` call, or one `complete_batch` call with
/// at least one prompt: a batch of many prompts is many exchanges but one
/// round trip, the unit a hosted model's latency is paid in.
///
/// Thread-safe: concurrent detection workers append under a `Mutex`, so
/// usage accounting stays exact at any thread count (the *order* of
/// exchanges follows completion order, which under concurrency may differ
/// from prompt submission order).
pub struct Transcript<M> {
    inner: M,
    exchanges: Mutex<Vec<Exchange>>,
    round_trips: AtomicUsize,
}

impl<M: ChatModel> Transcript<M> {
    /// Starts recording over `inner`.
    pub fn new(inner: M) -> Self {
        Transcript { inner, exchanges: Mutex::new(Vec::new()), round_trips: AtomicUsize::new(0) }
    }

    /// All exchanges so far, in order.
    pub fn exchanges(&self) -> Vec<Exchange> {
        self.exchanges.lock().expect("exchanges lock").clone()
    }

    /// Number of answered prompts, the length of
    /// [`exchanges`](Self::exchanges); failed prompts are not counted.
    pub fn exchange_count(&self) -> usize {
        self.exchanges.lock().expect("exchanges lock").len()
    }

    /// Number of calls that reached the inner model, answered or not: one
    /// per `complete`, one per non-empty `complete_batch`.
    pub fn round_trips(&self) -> usize {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Total token usage across all calls.
    pub fn total_usage(&self) -> Usage {
        let exchanges = self.exchanges.lock().expect("exchanges lock");
        Usage {
            prompt_tokens: exchanges.iter().map(|e| e.usage.prompt_tokens).sum(),
            completion_tokens: exchanges.iter().map(|e| e.usage.completion_tokens).sum(),
        }
    }

    /// Unwraps the inner model.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: ChatModel> ChatModel for Transcript<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    /// A one-prompt [`complete_batch`](ChatModel::complete_batch).
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
        self.complete_batch(std::slice::from_ref(request)).remove(0)
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        if !requests.is_empty() {
            self.round_trips.fetch_add(1, Ordering::Relaxed);
        }
        let responses = self.inner.complete_batch(requests);
        let mut exchanges = self.exchanges.lock().expect("exchanges lock");
        for (request, response) in requests.iter().zip(&responses) {
            if let Ok(response) = response {
                exchanges.push(Exchange {
                    prompt: request.user_text(),
                    response: response.content.clone(),
                    usage: response.usage,
                });
            }
        }
        responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::ScriptedLlm;

    #[test]
    fn records_exchanges_and_usage() {
        let t = Transcript::new(ScriptedLlm::new(["resp one", "response two longer"]));
        t.complete(&ChatRequest::simple("first prompt")).unwrap();
        t.complete(&ChatRequest::simple("second")).unwrap();
        assert_eq!(t.exchange_count(), 2);
        assert_eq!(t.round_trips(), 2);
        let ex = t.exchanges();
        assert_eq!(ex[0].prompt, "first prompt");
        assert_eq!(ex[0].response, "resp one");
        assert_eq!(t.total_usage().prompt_tokens, 3);
        assert_eq!(t.total_usage().completion_tokens, 5);
    }

    #[test]
    fn failures_not_recorded() {
        let t = Transcript::new(ScriptedLlm::new(Vec::<String>::new()));
        assert!(t.complete(&ChatRequest::simple("x")).is_err());
        assert_eq!(t.exchange_count(), 0);
        // The failed call still went to the model.
        assert_eq!(t.round_trips(), 1);
    }

    #[test]
    fn passthrough_name() {
        let t = Transcript::new(ScriptedLlm::new(["a"]));
        assert_eq!(t.model_name(), "scripted");
    }

    #[test]
    fn batch_records_successes_only() {
        let t = Transcript::new(ScriptedLlm::new(["alpha"]));
        let requests = vec![ChatRequest::simple("p1"), ChatRequest::simple("p2")];
        let responses = t.complete_batch(&requests);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_err());
        assert_eq!(t.exchange_count(), 1);
        assert_eq!(t.exchanges()[0].prompt, "p1");
        // Two prompts, one round trip; an empty batch is no round trip.
        assert_eq!(t.round_trips(), 1);
        assert!(t.complete_batch(&[]).is_empty());
        assert_eq!(t.round_trips(), 1);
    }

    #[test]
    fn usage_accounting_is_exact_under_concurrency() {
        // 8 threads × identical two-token prompts: the totals must be exact,
        // not approximately right — the Mutex guards every append.
        let script: Vec<String> = (0..8).map(|i| format!("answer {i}")).collect();
        let t = Transcript::new(ScriptedLlm::new(script));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| t.complete(&ChatRequest::simple("two tokens")).unwrap());
            }
        });
        assert_eq!(t.exchange_count(), 8);
        assert_eq!(t.round_trips(), 8);
        assert_eq!(t.total_usage().prompt_tokens, 16);
        assert_eq!(t.total_usage().completion_tokens, 16);
    }
}
