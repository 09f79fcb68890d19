//! The chat-completion interface and test doubles.
//!
//! The original Cocoon "supports LLM APIs from Anthropic, Azure, Bedrock,
//! VertexAI, and OpenAI" (§2.2). This crate models that boundary as the
//! [`ChatModel`] trait, whose one completion method to implement is
//! [`ChatModel::complete_batch`]: a provider client answers a list of
//! prompts, and a single prompt is a one-prompt batch. [`one_per_request`]
//! holds every layer that pairs answers with prompts to one answer per
//! prompt. The production implementation in this offline reproduction is
//! [`crate::sim::SimLlm`], and tests use [`ScriptedLlm`] / [`FailingLlm`]
//! for failure injection.

use crate::error::{LlmError, Result};
use std::sync::Mutex;

/// Message author role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Instructions framing the conversation.
    System,
    /// The caller's turn.
    User,
    /// The model's turn.
    Assistant,
}

/// One message of a chat exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Author of this message.
    pub role: Role,
    /// The message text.
    pub content: String,
}

impl Message {
    /// A user-role message.
    pub fn user(content: impl Into<String>) -> Self {
        Message { role: Role::User, content: content.into() }
    }

    /// A system-role message.
    pub fn system(content: impl Into<String>) -> Self {
        Message { role: Role::System, content: content.into() }
    }
}

/// A chat-completion request.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatRequest {
    /// The conversation, oldest first.
    pub messages: Vec<Message>,
    /// Sampling temperature; the pipeline uses 0.0 for determinism.
    pub temperature: f64,
}

impl ChatRequest {
    /// Single-user-message request at temperature 0 — the shape every
    /// pipeline prompt uses.
    pub fn simple(prompt: impl Into<String>) -> Self {
        ChatRequest { messages: vec![Message::user(prompt)], temperature: 0.0 }
    }

    /// Concatenated text of all user messages (what a prompt parser sees).
    pub fn user_text(&self) -> String {
        self.messages
            .iter()
            .filter(|m| m.role == Role::User)
            .map(|m| m.content.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// A 64-bit identity hash over roles, contents, and temperature bits —
    /// the request key [`crate::CachedLlm`] memoises on and
    /// [`crate::CoalescingDispatcher`] coalesces on. Collisions over the
    /// few thousand distinct prompts of a cleaning run are vanishingly
    /// unlikely, and would replay a wrong (but well-formed) answer, never
    /// corrupt memory.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for message in &self.messages {
            (message.role as u8).hash(&mut hasher);
            message.content.hash(&mut hasher);
        }
        self.temperature.to_bits().hash(&mut hasher);
        hasher.finish()
    }
}

/// Token accounting, approximated by whitespace-separated word count —
/// adequate for relative cost reporting in the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// Approximate token count of the prompt.
    pub prompt_tokens: usize,
    /// Approximate token count of the completion.
    pub completion_tokens: usize,
}

impl Usage {
    /// Rough token estimate for a text.
    pub fn estimate(text: &str) -> usize {
        text.split_whitespace().count()
    }

    /// Prompt plus completion tokens.
    pub fn total(&self) -> usize {
        self.prompt_tokens + self.completion_tokens
    }
}

/// A chat-completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatResponse {
    /// The completion text.
    pub content: String,
    /// Token accounting for this exchange.
    pub usage: Usage,
}

/// The provider boundary: anything that can answer a chat request.
///
/// Models are `Send + Sync` so the pipeline can issue prompts from several
/// detection workers at once; implementations guard interior state with
/// `Mutex`, not `RefCell`. Completion takes `&self`: a model is a shared
/// service, not an owned resource.
pub trait ChatModel: Send + Sync {
    /// Model identifier for reports (e.g. `"sim-claude-3.5"`).
    fn model_name(&self) -> &str;

    /// Completes a batch of requests: one result per request, in request
    /// order. A backend may answer the prompts however it likes (one
    /// pipelined request to a hosted API, scoped workers, a cache that
    /// forwards only its misses). Callers that read the answers by slot
    /// fit them with [`one_per_request`], so a backend that answers short
    /// fails the missing slots instead of shifting or panicking them.
    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>>;

    /// Completes one request: a one-prompt
    /// [`complete_batch`](Self::complete_batch).
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
        let mut answers = one_per_request(self.complete_batch(std::slice::from_ref(request)), 1);
        answers.pop().expect("one_per_request fits the answers to one slot")
    }
}

/// Fits a backend's answers to the `requests` it was asked: exactly one
/// result per request, in request order. A slot the backend left
/// unanswered fails with [`LlmError::Completion`]; answers beyond the
/// request count are dropped. Every layer that pairs answers with prompts
/// goes through here, so a misbehaving backend costs only its missing
/// slots.
pub fn one_per_request(
    mut answers: Vec<Result<ChatResponse>>,
    requests: usize,
) -> Vec<Result<ChatResponse>> {
    answers.truncate(requests);
    answers.resize_with(requests, || {
        Err(LlmError::Completion("backend returned fewer responses than requests".into()))
    });
    answers
}

/// A shared reference is itself a model: lets long-lived services hand one
/// process-wide model (cache, dispatcher) to many [`Cleaner`]s by reference.
///
/// [`Cleaner`]: ../cocoon_core/struct.Cleaner.html
impl<M: ChatModel + ?Sized> ChatModel for &M {
    fn model_name(&self) -> &str {
        (**self).model_name()
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        (**self).complete_batch(requests)
    }
}

/// Replays a fixed script of responses, in order. Extra calls fail with
/// [`LlmError::Empty`]. Used by unit tests and failure-injection tests.
///
/// The script is positional: answers pair with prompts in arrival order,
/// a batch's prompts in request order. The cleaning pipeline asks in a
/// fixed order at any thread count (each detection prompt wave is one
/// batch in unit order, and decide-phase calls are sequential), so a
/// script pairs with its prompts deterministically; a caller that
/// completes from several threads at once gets a scheduling-dependent
/// pairing.
pub struct ScriptedLlm {
    responses: Mutex<std::collections::VecDeque<String>>,
    calls: Mutex<Vec<String>>,
}

impl ScriptedLlm {
    /// A model that replays `responses` in call order.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(responses: I) -> Self {
        ScriptedLlm {
            responses: Mutex::new(responses.into_iter().map(Into::into).collect()),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The prompts this model has been asked so far.
    pub fn prompts_seen(&self) -> Vec<String> {
        self.calls.lock().expect("calls lock").clone()
    }

    /// Pops the next scripted answer for `request`.
    fn answer(&self, request: &ChatRequest) -> Result<ChatResponse> {
        self.calls.lock().expect("calls lock").push(request.user_text());
        let mut responses = self.responses.lock().expect("responses lock");
        let content = responses.pop_front().ok_or(LlmError::Empty)?;
        let usage = Usage {
            prompt_tokens: Usage::estimate(&request.user_text()),
            completion_tokens: Usage::estimate(&content),
        };
        Ok(ChatResponse { content, usage })
    }
}

impl ChatModel for ScriptedLlm {
    fn model_name(&self) -> &str {
        "scripted"
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        requests.iter().map(|request| self.answer(request)).collect()
    }
}

/// Always fails — models a dead endpoint.
pub struct FailingLlm;

impl ChatModel for FailingLlm {
    fn model_name(&self) -> &str {
        "failing"
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        let failure = LlmError::Completion("simulated endpoint failure".into());
        requests.iter().map(|_| Err(failure.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_request_shape() {
        let r = ChatRequest::simple("hello");
        assert_eq!(r.messages.len(), 1);
        assert_eq!(r.temperature, 0.0);
        assert_eq!(r.user_text(), "hello");
    }

    #[test]
    fn scripted_replays_in_order() {
        let llm = ScriptedLlm::new(["one", "two"]);
        assert_eq!(llm.complete(&ChatRequest::simple("a")).unwrap().content, "one");
        assert_eq!(llm.complete(&ChatRequest::simple("b")).unwrap().content, "two");
        assert_eq!(llm.complete(&ChatRequest::simple("c")), Err(LlmError::Empty));
        assert_eq!(llm.prompts_seen(), vec!["a", "b", "c"]);
    }

    #[test]
    fn failing_always_fails() {
        assert!(FailingLlm.complete(&ChatRequest::simple("x")).is_err());
    }

    #[test]
    fn batch_default_answers_in_request_order() {
        let llm = ScriptedLlm::new(["one", "two"]);
        let requests = vec![
            ChatRequest::simple("a"),
            ChatRequest::simple("b"),
            ChatRequest::simple("c"), // script exhausted → Empty
        ];
        let responses = llm.complete_batch(&requests);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].as_ref().unwrap().content, "one");
        assert_eq!(responses[1].as_ref().unwrap().content, "two");
        assert_eq!(responses[2], Err(LlmError::Empty));
        assert_eq!(llm.prompts_seen(), vec!["a", "b", "c"]);
    }

    #[test]
    fn models_are_shareable_across_threads() {
        // The Send + Sync bound is the point of this test: a scripted model
        // behind a shared reference must serve concurrent callers.
        let llm = ScriptedLlm::new(["r0", "r1", "r2", "r3"]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| llm.complete(&ChatRequest::simple("p")).unwrap());
            }
        });
        assert_eq!(llm.prompts_seen().len(), 4);
        assert_eq!(llm.complete(&ChatRequest::simple("x")), Err(LlmError::Empty));
    }

    #[test]
    fn fingerprint_distinguishes_content_role_and_temperature() {
        let base = ChatRequest::simple("p");
        assert_eq!(base.fingerprint(), ChatRequest::simple("p").fingerprint());
        assert_ne!(base.fingerprint(), ChatRequest::simple("q").fingerprint());
        let warm = ChatRequest { temperature: 0.7, ..base.clone() };
        assert_ne!(base.fingerprint(), warm.fingerprint());
        let system = ChatRequest { messages: vec![Message::system("p")], temperature: 0.0 };
        assert_ne!(base.fingerprint(), system.fingerprint());
    }

    #[test]
    fn references_are_models() {
        fn takes_model<M: ChatModel>(m: M) -> String {
            m.model_name().to_string()
        }
        let llm = ScriptedLlm::new(["a"]);
        assert_eq!(takes_model(&llm), "scripted");
        let by_ref: &ScriptedLlm = &llm;
        let responses =
            <&ScriptedLlm as ChatModel>::complete_batch(&by_ref, &[ChatRequest::simple("x")]);
        assert_eq!(responses[0].as_ref().unwrap().content, "a");
    }

    #[test]
    fn answers_are_fitted_to_one_per_request() {
        let answer =
            |text: &str| Ok(ChatResponse { content: text.into(), usage: Usage::default() });
        let missing =
            Err(LlmError::Completion("backend returned fewer responses than requests".into()));
        assert_eq!(one_per_request(vec![answer("a")], 3), [answer("a"), missing.clone(), missing]);
        assert_eq!(
            one_per_request(vec![answer("a"), answer("b"), answer("c")], 2),
            [answer("a"), answer("b")]
        );
        assert!(one_per_request(vec![answer("a")], 0).is_empty());
    }

    #[test]
    fn usage_accounting() {
        let llm = ScriptedLlm::new(["two words"]);
        let resp = llm.complete(&ChatRequest::simple("three small words")).unwrap();
        assert_eq!(resp.usage.prompt_tokens, 3);
        assert_eq!(resp.usage.completion_tokens, 2);
        assert_eq!(resp.usage.total(), 5);
    }
}
