//! # cocoon-llm
//!
//! LLM-client substrate for the Cocoon reproduction.
//!
//! The original system talks to hosted models ("We support LLM APIs from
//! Anthropic, Azure, Bedrock, VertexAI, and OpenAI", §2.2). This crate
//! models that boundary:
//!
//! * [`chat`] — the provider-agnostic, thread-safe [`ChatModel`] trait
//!   (one completion method to implement, `complete_batch`; `complete` is
//!   a one-prompt batch), [`one_per_request`], which holds every layer to
//!   one answer per prompt, and scripted and failing test doubles,
//! * [`cache`] — [`CachedLlm`], a prompt-hash-keyed completion cache with
//!   hit/miss accounting for repeat cleans,
//! * [`dispatch`] — [`CoalescingDispatcher`], the request-shaping layer for
//!   shared backends: single-flight merging of concurrent identical
//!   prompts and token-bucket rate limiting,
//! * [`prompts`] — the prompt templates for all eight issue types, with the
//!   string-outlier prompts reproducing the paper's Figures 2–3 verbatim,
//! * [`json`] / [`yaml`] — from-scratch wire-format parsers tolerant of the
//!   fences and sloppiness real models produce,
//! * [`responses`] — typed response parsing for every step,
//! * [`sim`] — [`SimLlm`], the deterministic semantic oracle that stands in
//!   for Claude 3.5 offline: the workspace has no network, and a
//!   temperature-0 oracle makes every clean reproducible byte for byte
//!   (README.md, opening section),
//! * [`transcript`] — a recording wrapper for HIL reports and token
//!   accounting.

#![warn(missing_docs)]

pub mod cache;
pub mod chat;
pub mod dispatch;
pub mod error;
pub mod json;
pub mod prompts;
pub mod responses;
pub mod sim;
pub mod transcript;
pub mod yaml;

pub use cache::CachedLlm;
pub use chat::{
    one_per_request, ChatModel, ChatRequest, ChatResponse, FailingLlm, Message, Role, ScriptedLlm,
    Usage,
};
pub use dispatch::{
    BatchEvent, CoalescingDispatcher, DispatchObserver, DispatcherStats, RateLimit,
};
pub use error::{LlmError, Result};
pub use json::Json;
pub use responses::{
    parse_cleaning_map, parse_detect_verdict, parse_dmv_verdict, parse_dup_verdict,
    parse_fd_verdict, parse_pattern_plan, parse_range_verdict, parse_type_verdict,
    parse_unique_verdict, CleaningMap, DetectVerdict, DmvVerdict, DupVerdict, FdVerdict,
    PatternPlan, RangeVerdict, TypeVerdict, UniqueVerdict,
};
pub use sim::SimLlm;
pub use transcript::{Exchange, Transcript};
