//! One answer per prompt at every model layer. A backend that answers
//! fewer prompts than it was asked, or none at all, costs each missing slot
//! an error of its own: the cache, the dispatcher, the transcript, a single
//! `complete` and a whole clean all return one result per prompt, and none
//! of them panics.

use cocoon_core::Cleaner;
use cocoon_llm::{
    prompts, CachedLlm, ChatModel, ChatRequest, ChatResponse, CoalescingDispatcher, LlmError,
    SimLlm, Transcript,
};
use cocoon_table::csv;

/// `SimLlm` that answers only the first `answered` prompts of every batch.
struct Short {
    answered: usize,
}

impl ChatModel for Short {
    fn model_name(&self) -> &str {
        "short"
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<cocoon_llm::Result<ChatResponse>> {
        SimLlm::new().complete_batch(&requests[..requests.len().min(self.answered)])
    }
}

/// The error a missing slot carries.
fn missing() -> LlmError {
    LlmError::Completion("backend returned fewer responses than requests".into())
}

/// Three distinct prompts the oracle answers.
fn requests() -> Vec<ChatRequest> {
    let census = vec![("eng".to_string(), 40), ("English".to_string(), 9)];
    (0..3)
        .map(|i| {
            ChatRequest::simple(prompts::string_outliers_detect(&format!("lang_{i}"), &census))
        })
        .collect()
}

/// Each layer over a backend that answers `answered` prompts per batch,
/// the server's stack (cache over dispatcher) included.
fn layers(answered: usize) -> Vec<(&'static str, Box<dyn ChatModel>)> {
    vec![
        ("CachedLlm", Box::new(CachedLlm::new(Short { answered }))),
        ("CoalescingDispatcher", Box::new(CoalescingDispatcher::new(Short { answered }, None))),
        ("Transcript", Box::new(Transcript::new(Short { answered }))),
        (
            "CachedLlm over CoalescingDispatcher",
            Box::new(CachedLlm::new(CoalescingDispatcher::new(Short { answered }, None))),
        ),
    ]
}

#[test]
fn every_layer_returns_one_result_per_prompt() {
    for answered in [1, 0] {
        for (layer, model) in layers(answered) {
            let answers = model.complete_batch(&requests());
            assert_eq!(
                answers.len(),
                3,
                "{layer} over {answered} answer(s): one result per prompt"
            );
            for (slot, answer) in answers.iter().enumerate() {
                match answer {
                    Ok(_) => assert!(slot < answered, "{layer}: slot {slot} was never answered"),
                    Err(err) => {
                        assert!(slot >= answered, "{layer}: answered slot {slot} failed: {err}");
                        assert_eq!(err, &missing(), "{layer} slot {slot}");
                    }
                }
            }
            let single = model.complete(&requests()[2]);
            match answered {
                0 => assert_eq!(single, Err(missing()), "{layer}: complete"),
                _ => assert!(single.is_ok(), "{layer}: complete: {single:?}"),
            }
        }
        // The provided `complete` straight on the backend: a one-prompt
        // batch, fitted to its one slot.
        let single = Short { answered }.complete(&requests()[0]);
        assert_eq!(single.is_ok(), answered > 0, "complete: {single:?}");
        if answered == 0 {
            assert_eq!(single, Err(missing()));
        }
    }
}

#[test]
fn failed_slots_are_neither_cached_nor_recorded() {
    let cache = CachedLlm::new(Short { answered: 1 });
    cache.complete_batch(&requests());
    assert_eq!((cache.len(), cache.misses()), (1, 3));

    let transcript = Transcript::new(Short { answered: 1 });
    transcript.complete_batch(&requests());
    assert_eq!((transcript.exchange_count(), transcript.round_trips()), (1, 1));
    let silent = Transcript::new(Short { answered: 0 });
    assert!(silent.complete(&requests()[0]).is_err());
    assert_eq!((silent.exchange_count(), silent.round_trips()), (0, 1));
}

#[test]
fn a_clean_over_a_short_cache_degrades_instead_of_panicking() {
    let mut text = String::from("record_id,lang,rating\n");
    for i in 0..20 {
        text.push_str(&format!("r{i},eng,7.5\n"));
    }
    text.push_str("r20,English,8.0\nr21,eng,99.0\n");
    let table = csv::read_str(&text).expect("fixture parses");
    for answered in [1, 0] {
        let run = Cleaner::new(CachedLlm::new(Short { answered }))
            .clean(&table)
            .unwrap_or_else(|e| panic!("{answered} answer(s) per batch: {e}"));
        let reason = missing().to_string();
        assert!(
            run.notes.iter().any(|note| note.contains(&reason)),
            "a missing answer degrades the unit that asked it: {:?}",
            run.notes
        );
        if answered == 0 {
            assert!(run.ops.is_empty(), "no answer, no repair: {:?}", run.ops);
        }
    }
}
