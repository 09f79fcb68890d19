//! Human-in-the-loop behaviour and LLM failure injection, end to end.

use cocoon_core::{
    Cleaner, CleanerConfig, CleaningReview, Decision, DecisionHook, DetectionReview, IssueKind,
    RecordingHook, RejectIssues,
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
fn an_adjusted_fd_mapping_applies_only_the_pairs_kept() {
    // zip_code → city over ten zip groups, two of which violate it: a typo
    // in the first group and a misplaced county name in the second.
    let cities = [
        "birmingham",
        "dothan",
        "mobile",
        "huntsville",
        "montgomery",
        "tuscaloosa",
        "phoenix",
        "tucson",
        "austin",
        "dallas",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, city) in cities.iter().enumerate() {
        rows.extend((0..8).map(|_| vec![format!("35{i:03}"), city.to_string()]));
    }
    rows[1][1] = "birminghxm".into();
    rows[9][1] = "jefferson".into();
    let table = cocoon_table::Table::from_text_rows(&["zip_code", "city"], &rows).unwrap();

    /// Keeps the first pair of each FD cleaning review, and records the
    /// pairs proposed.
    #[derive(Default)]
    struct KeepFirstPair(Vec<(String, String)>);
    impl DecisionHook for KeepFirstPair {
        fn review_detection(&mut self, _r: &DetectionReview<'_>) -> Decision {
            Decision::Approve
        }
        fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
            assert_eq!(review.issue, IssueKind::FunctionalDependency);
            self.0.extend_from_slice(review.mapping);
            Decision::AdjustMapping(review.mapping[..1].to_vec())
        }
    }
    let config = CleanerConfig::only_issue(IssueKind::FunctionalDependency);
    let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
    let mut hook = KeepFirstPair::default();
    let run = cleaner.clean_observed(&table, &mut hook, None).unwrap();
    let pair = |old: &str, new: &str| (old.to_string(), new.to_string());
    assert_eq!(hook.0, [pair("birminghxm", "birmingham"), pair("jefferson", "dothan")]);
    assert_eq!(run.ops.len(), 1, "{:?}", run.notes);
    assert_eq!(run.ops[0].cells_changed, 1);
    assert_eq!(run.table.render_cell(1, 1).unwrap(), "birmingham");
    assert_eq!(run.table.render_cell(9, 1).unwrap(), "jefferson", "the dropped pair applied");
}

#[test]
fn cleaning_reviews_show_the_sql_that_applies() {
    /// Approves everything, keeping each cleaning review's SQL preview.
    #[derive(Default)]
    struct Previews(Vec<String>);
    impl DecisionHook for Previews {
        fn review_detection(&mut self, _r: &DetectionReview<'_>) -> Decision {
            Decision::Approve
        }
        fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
            self.0.push(review.sql_preview());
            Decision::Approve
        }
    }
    let dataset = cocoon_datasets::catalog::by_name("Hospital").expect("catalog dataset");
    let mut previews = Previews::default();
    let run =
        Cleaner::new(SimLlm::new()).clean_observed(&dataset.dirty, &mut previews, None).unwrap();
    for kind in
        [IssueKind::StringOutliers, IssueKind::DisguisedMissing, IssueKind::FunctionalDependency]
    {
        let ops = run.ops_for(kind);
        assert!(!ops.is_empty(), "Hospital has {kind} repairs");
        for op in ops {
            let applied = cocoon_sql::render_select(&op.sql);
            assert!(
                previews.0.contains(&applied),
                "{kind} on {:?} not reviewed as applied",
                op.column
            );
        }
    }
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
    // The script pairs with prompts in call order. The first detection
    // wave asks both columns: `id` gets the valid verdict that flags it,
    // `lang` the malformed answer (it degrades). `id`'s cleaning map then
    // finds the script exhausted (it degrades too); everything after fails.
    let responses = vec![
        r#"{"Reasoning": "mixed", "Unusualness": true, "Summary": "mixed reps"}"#.to_string(),
        "not yaml at all".to_string(),
    ];
    let table = messy();
    let run = Cleaner::new(ScriptedLlm::new(responses)).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
}

#[test]
fn a_nan_confidence_does_not_withhold_a_repair_at_the_default_threshold() {
    // The cleaning map states `confidence: nan`. It parses as "not stated",
    // so the repair scores the default self-report and applies; a NaN score
    // would compare below every threshold, 0.0 included.
    let table = csv::read_str("lang\neng\neng\neng\neng\nEnglish\n").unwrap();
    let responses = [
        r#"{"Reasoning": "codes and names mixed", "Unusualness": true, "Summary": "mixed"}"#,
        "```yml\nexplanation: >\n  use the code\nconfidence: nan\nmapping:\n  English: eng\n```",
    ];
    let config = CleanerConfig::only_issue(IssueKind::StringOutliers);
    let run =
        Cleaner::with_config(ScriptedLlm::new(responses), config).unwrap().clean(&table).unwrap();
    assert!(run.pending.is_empty(), "{:?}", run.notes);
    assert_eq!(run.ops.len(), 1);
    assert_eq!(run.ops[0].confidence.self_report, cocoon_core::DEFAULT_SELF_REPORT);
    assert_eq!(run.table.render_cell(4, 0).unwrap(), "eng");
}
