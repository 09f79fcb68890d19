//! Human-in-the-loop behaviour and LLM failure injection, end to end.

use cocoon_core::{
    Cleaner, CleanerConfig, CleaningReview, Decision, DecisionHook, DetectionReview, IssueKind,
    RecordingHook, RejectIssues, STAGE_ORDER,
};
use cocoon_llm::{FailingLlm, ScriptedLlm, SimLlm};
use cocoon_sql::render_select;
use cocoon_table::{csv, Table};

fn messy() -> cocoon_table::Table {
    let mut text = String::from("id,lang\n");
    for i in 0..20 {
        text.push_str(&format!("r{i},eng\n"));
    }
    text.push_str("r20,English\nr21,N/A\n");
    csv::read_str(&text).unwrap()
}

/// Ratings, once cast to numbers, with one out of range: numeric outliers
/// repair it.
fn ratings() -> Table {
    let mut text = String::from("id,lang,rating\n");
    for i in 0..20 {
        text.push_str(&format!("r{i},eng,7.5\n"));
    }
    text.push_str("r20,English,8.0\nr21,N/A,99.0\n");
    csv::read_str(&text).unwrap()
}

/// title → journal_abbreviation → region over 10 journals × 8 rows, two
/// rows off: FD repairs both columns, and the rows they leave repeated are
/// removed as duplicates.
fn journals() -> Table {
    let regions = [
        "europe", "europe", "europe", "europe", "asia", "asia", "asia", "america", "america",
        "america",
    ];
    let mut text = String::from("title,journal_abbreviation,region\n");
    for i in 0..80 {
        let (abbreviation, region) = match i {
            1 => ("J5".to_string(), "asia"),
            9 => ("J1".to_string(), "america"),
            _ => (format!("J{}", i / 8), regions[i / 8]),
        };
        text.push_str(&format!("journal {},{abbreviation},{region}\n", i / 8));
    }
    csv::read_str(&text).unwrap()
}

/// Thirty records, one id repeated with a later update: uniqueness keeps
/// the latest.
fn records() -> Table {
    let mut text = String::from("record_id,updated_at\n");
    for i in 0..30 {
        text.push_str(&format!("r{i},2020-01-{:02}\n", i % 28 + 1));
    }
    text.push_str("r5,2021-06-01\n");
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
fn an_adjusted_conversion_map_is_what_casts() {
    /// Approves, but has "1 hr. 30 min." convert to 95 instead of 90.
    struct NinetyFive;
    impl DecisionHook for NinetyFive {
        fn review_detection(&mut self, _r: &DetectionReview<'_>) -> Decision {
            Decision::Approve
        }
        fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
            assert!(review.sql_preview().contains("TRY_CAST"), "{}", review.sql_preview());
            let adjusted = review.mapping.iter().map(|(old, new)| {
                let new = if old == "1 hr. 30 min." { "95" } else { new };
                (old.clone(), new.to_string())
            });
            Decision::AdjustMapping(adjusted.collect())
        }
    }
    let table = csv::read_str("duration\n90 min\n1 hr. 30 min.\n100 min\n").unwrap();
    let config = CleanerConfig::only_issue(IssueKind::ColumnType);
    let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
    let run = cleaner.clean_observed(&table, &mut NinetyFive, None).unwrap();
    assert_eq!(run.ops.len(), 1, "{:?}", run.notes);
    let cells: Vec<String> = (0..3).map(|row| run.table.render_cell(row, 0).unwrap()).collect();
    assert_eq!(cells, ["90.0", "95.0", "100.0"]);
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

/// Approves everything, keeping each cleaning review's SQL.
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

#[test]
fn cleaning_reviews_show_the_sql_that_applies() {
    let catalog = cocoon_datasets::catalog::all().into_iter().map(|d| (d.name, d.dirty));
    let fixtures = [("ratings", ratings()), ("journals", journals()), ("records", records())];
    let mut applied = Vec::new();
    for (name, table) in catalog.chain(fixtures) {
        let mut previews = Previews::default();
        let run = Cleaner::new(SimLlm::new()).clean_observed(&table, &mut previews, None).unwrap();
        // Every op's SQL was a cleaning review's, in op order.
        let mut reviewed = previews.0.iter();
        for op in &run.ops {
            let sql = render_select(&op.sql);
            assert!(
                reviewed.any(|preview| *preview == sql),
                "{name}: {} on {:?} not reviewed as applied",
                op.issue,
                op.column
            );
        }
        applied.extend(run.ops.iter().map(|op| op.issue));
    }
    for kind in STAGE_ORDER {
        assert!(applied.contains(&kind), "no {kind} repair applied");
    }
}

#[test]
fn an_adjusted_mapping_on_a_repair_without_one_applies_the_proposed_sql() {
    /// Adjusts every numeric-outlier cleaning review, keeping the SQL shown.
    #[derive(Default)]
    struct AdjustRange(Vec<String>);
    impl DecisionHook for AdjustRange {
        fn review_detection(&mut self, _r: &DetectionReview<'_>) -> Decision {
            Decision::Approve
        }
        fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
            if review.issue != IssueKind::NumericOutliers {
                return Decision::Approve;
            }
            assert!(review.mapping.is_empty(), "{:?}", review.mapping);
            self.0.push(review.sql_preview());
            Decision::AdjustMapping(vec![("99.0".into(), "7.5".into())])
        }
    }
    let mut hook = AdjustRange::default();
    let adjusted = Cleaner::new(SimLlm::new()).clean_observed(&ratings(), &mut hook, None).unwrap();
    let approved = Cleaner::new(SimLlm::new()).clean(&ratings()).unwrap();
    let ops = adjusted.ops_for(IssueKind::NumericOutliers);
    assert_eq!(ops.len(), 1);
    assert_eq!(hook.0, [render_select(&ops[0].sql)]);
    assert_eq!(adjusted.table, approved.table);
    assert_eq!(adjusted.sql_script(), approved.sql_script());
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
