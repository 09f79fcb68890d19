//! Human-in-the-loop behaviour and LLM failure injection, end to end.

use cocoon_core::{
    Cleaner, CleaningReview, Decision, DecisionHook, DetectionReview, IssueKind, RecordingHook,
    RejectIssues,
};
use cocoon_llm::{FailingLlm, ScriptedLlm, SimLlm};
use cocoon_table::csv;

fn messy() -> cocoon_table::Table {
    let mut text = String::from("id,lang\n");
    for i in 0..20 {
        text.push_str(&format!("r{i},eng\n"));
    }
    text.push_str("r20,English\nr21,N/A\n");
    csv::read_str(&text).unwrap()
}

#[test]
fn reviewer_rejections_are_honoured() {
    let table = messy();
    let cleaner = Cleaner::new(SimLlm::new());
    let mut reject_all = RejectIssues {
        rejected: vec![
            IssueKind::StringOutliers,
            IssueKind::PatternOutliers,
            IssueKind::DisguisedMissing,
            IssueKind::ColumnType,
            IssueKind::NumericOutliers,
            IssueKind::FunctionalDependency,
            IssueKind::Duplication,
            IssueKind::Uniqueness,
        ],
    };
    let run = cleaner.clean_observed(&table, &mut reject_all, None).unwrap();
    assert!(run.ops.is_empty(), "a reviewer that rejects everything blocks all repairs");
    assert_eq!(run.table, table);
    assert!(!run.notes.is_empty());
}

#[test]
fn reviewer_can_adjust_a_mapping() {
    struct AdjustLang;
    impl DecisionHook for AdjustLang {
        fn review_detection(&mut self, _r: &DetectionReview<'_>) -> Decision {
            Decision::Approve
        }
        fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
            if review.issue == IssueKind::StringOutliers {
                // The human overrides the model: map to "en" instead.
                Decision::AdjustMapping(vec![("English".into(), "en".into())])
            } else {
                Decision::Approve
            }
        }
    }
    let cleaner = Cleaner::new(SimLlm::new());
    let run = cleaner.clean_observed(&messy(), &mut AdjustLang, None).unwrap();
    assert_eq!(run.table.render_cell(20, 1).unwrap(), "en");
}

#[test]
fn recording_hook_sees_every_review() {
    let cleaner = Cleaner::new(SimLlm::new());
    let mut recorder = RecordingHook::default();
    let run = cleaner.clean_observed(&messy(), &mut recorder, None).unwrap();
    assert!(!run.ops.is_empty());
    assert!(
        recorder.detections.len() + recorder.cleanings.len() >= run.ops.len(),
        "each applied op passed at least one review"
    );
}

#[test]
fn dead_llm_degrades_to_noop_without_panicking() {
    let table = messy();
    let run = Cleaner::new(FailingLlm).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
    assert!(run.notes.iter().all(|n| n.contains("degraded")));
}

#[test]
fn garbage_responses_degrade_per_column() {
    // A model that answers prose (no JSON/YAML) for every prompt.
    let garbage: Vec<String> = (0..64).map(|_| "I'm sorry, I cannot help.".into()).collect();
    let table = messy();
    let run = Cleaner::new(ScriptedLlm::new(garbage)).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
    assert!(!run.notes.is_empty());
}

#[test]
fn half_broken_llm_applies_only_parseable_steps() {
    // First (detection) answer is valid and flags the column; the cleaning
    // answer is malformed → the column degrades; everything after fails.
    let responses = vec![
        r#"{"Reasoning": "mixed", "Unusualness": true, "Summary": "mixed reps"}"#.to_string(),
        "not yaml at all".to_string(),
    ];
    let table = messy();
    let run = Cleaner::new(ScriptedLlm::new(responses)).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
}
