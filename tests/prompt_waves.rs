//! Prompts go out in waves: whatever the column count, each stage's
//! detection prompts reach the model in one call per wave, the FD stage's
//! independent mapping prompts share a call, and the confidence re-asks of
//! a clean share its last call. A failed slot in a wave's batch degrades
//! only the unit that asked it.

use cocoon_core::{Cleaner, CleanerConfig, CleaningRun};
use cocoon_llm::prompts::{parse_context, task};
use cocoon_llm::{ChatModel, ChatRequest, ChatResponse, Json, LlmError, SimLlm};
use cocoon_table::Table;
use std::sync::Mutex;

/// The task tag and column named by a prompt's context block.
fn tags(request: &ChatRequest) -> (String, String) {
    let context = parse_context(&request.user_text()).expect("pipeline prompts carry context");
    let field = |key: &str| context.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    (field("task"), field("column"))
}

/// `SimLlm` that records the `(task, column)` of every call's prompts and
/// fails the prompts `fail` selects.
struct Recording<F> {
    calls: Mutex<Vec<Vec<(String, String)>>>,
    fail: F,
}

impl<F: Fn(&str, &str) -> bool + Send + Sync> Recording<F> {
    fn new(fail: F) -> Self {
        Recording { calls: Mutex::new(Vec::new()), fail }
    }

    fn answer(&self, request: &ChatRequest) -> cocoon_llm::Result<ChatResponse> {
        let (task, column) = tags(request);
        if (self.fail)(&task, &column) {
            return Err(LlmError::Completion(format!("{task} on {column} refused")));
        }
        SimLlm::new().complete(request)
    }

    /// The recorded calls that carry at least one prompt of `task`.
    fn calls_with(&self, task: &str) -> Vec<Vec<(String, String)>> {
        let calls = self.calls.lock().unwrap();
        calls.iter().filter(|call| call.iter().any(|(t, _)| t == task)).cloned().collect()
    }
}

impl<F: Fn(&str, &str) -> bool + Send + Sync> ChatModel for Recording<F> {
    fn model_name(&self) -> &str {
        "recording"
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<cocoon_llm::Result<ChatResponse>> {
        self.calls.lock().unwrap().push(requests.iter().map(tags).collect());
        requests.iter().map(|request| self.answer(request)).collect()
    }
}

/// Twelve text columns over 60 rows, one of them an exact duplicate of
/// another: a record id with one more repeat, four
/// language columns with a minority spelling, two duration columns that
/// cast to numbers only after a conversion map, a yes/no flag, a column
/// with disguised missing values, and zip → city / zip → county
/// dependencies with one misplaced value each.
fn wide() -> Table {
    let cities = ["birmingham", "dothan", "mobile", "huntsville", "montgomery"];
    let counties = ["jefferson", "houston", "mobile", "madison", "montgomery"];
    let header = [
        "record_id",
        "zip_code",
        "city",
        "county",
        "lang_a",
        "lang_b",
        "lang_c",
        "lang_d",
        "duration_a",
        "duration_b",
        "emergency_service",
        "remarks",
    ];
    let rows: Vec<Vec<String>> = (0..60)
        .map(|row| {
            let i = if row == 57 { 56 } else { row };
            let z = i % 5;
            let minority = i % 12 == 5;
            let language = if minority { "English" } else { "eng" };
            let duration = match i % 10 {
                3 => "1 hr. 30 min.",
                7 => "100 min",
                _ => "90 min",
            };
            vec![
                format!("r{}", if row == 59 { 58 } else { i }),
                format!("3500{z}"),
                if i == 5 { "dothan" } else { cities[z] }.to_string(),
                if i == 11 { "jefferson" } else { counties[z] }.to_string(),
                language.to_string(),
                if minority { "French" } else { "fre" }.to_string(),
                language.to_string(),
                if i % 12 == 7 { "German" } else { "ger" }.to_string(),
                duration.to_string(),
                duration.to_string(),
                if i % 3 == 0 { "no" } else { "yes" }.to_string(),
                if i % 9 == 4 { "N/A".to_string() } else { format!("remark {}", i % 4) },
            ]
        })
        .collect();
    Table::from_text_rows(&header, &rows).unwrap()
}

fn clean<F: Fn(&str, &str) -> bool + Send + Sync>(
    llm: &Recording<F>,
    config: CleanerConfig,
) -> CleaningRun {
    Cleaner::with_config(llm, config).unwrap().clean(&wide()).unwrap()
}

#[test]
fn each_prompt_family_asks_in_one_call_per_wave_whatever_the_column_count() {
    for threads in [1, 8] {
        let llm = Recording::new(|_: &str, _: &str| false);
        let run = clean(&llm, CleanerConfig { threads: Some(threads), ..Default::default() });
        assert!(!run.ops.is_empty());

        // Wave one of every stage but FD and duplication reaches the model
        // as one call holding every column's prompt; FD's reviews of all
        // candidates share one call too.
        for (family, at_least) in [
            (task::STRING_OUTLIERS_DETECT, 12),
            (task::PATTERN_REVIEW, 2),
            (task::DMV_DETECT, 8),
            (task::COLUMN_TYPE, 8),
            (task::NUMERIC_RANGE, 2),
            (task::FD_REVIEW, 2),
            (task::DUPLICATION_REVIEW, 1),
            (task::UNIQUENESS_REVIEW, 1),
            // Second waves: string outliers' cleaning maps and column
            // type's numeric-conversion maps.
            (task::STRING_OUTLIERS_CLEAN, 6),
            (task::NUMERIC_CONVERSION, 2),
            // Decide phase: the zip → city and zip → county mappings, whose
            // groups neither repair can change, share one call; the sampled
            // repairs' re-asks share the clean's last call.
            (task::FD_MAPPING, 2),
            (task::REPAIR_VERIFY, 3),
        ] {
            let calls = llm.calls_with(family);
            assert_eq!(calls.len(), 1, "{family} at {threads} threads: {calls:?}");
            let prompts = &calls[0];
            assert!(prompts.iter().all(|(t, _)| t == family), "{family} shares its call");
            assert!(prompts.len() >= at_least, "{family}: {} prompts", prompts.len());
        }
        let calls = llm.calls.lock().unwrap();
        let last = calls.last().expect("the clean calls the model");
        assert!(last.iter().all(|(t, _)| t == task::REPAIR_VERIFY), "{last:?}");
    }
}

#[test]
fn a_failed_slot_degrades_only_the_column_that_asked_it() {
    // lang_b's detect prompt fails in wave one and lang_c's cleaning map
    // in wave two; both batches also carry prompts that succeed.
    let fail = |task: &str, column: &str| {
        column == "lang_b" || (column == "lang_c" && task == task::STRING_OUTLIERS_CLEAN)
    };
    let config = || CleanerConfig::only_issue("string_outliers");
    let degraded = clean(&Recording::new(fail), config());
    let full = clean(&Recording::new(|_: &str, _: &str| false), config());

    let columns = |run: &CleaningRun| -> Vec<String> {
        run.ops.iter().filter_map(|op| op.column.clone()).collect()
    };
    let languages = ["lang_a", "lang_b", "lang_c", "lang_d"];
    let durations = ["duration_a", "duration_b"];
    assert_eq!(columns(&full), [&languages[..], &durations].concat());
    assert_eq!(columns(&degraded), ["lang_a", "lang_d", "duration_a", "duration_b"]);
    let scripts = |run: &CleaningRun| -> Vec<String> {
        run.ops
            .iter()
            .filter(|op| !matches!(op.column.as_deref(), Some("lang_b" | "lang_c")))
            .map(|op| op.rendered_sql())
            .collect()
    };
    assert_eq!(scripts(&degraded), scripts(&full), "the other columns' repairs still apply");
    assert_eq!(
        degraded.notes,
        [
            "string outliers on \"lang_b\" degraded to statistical-only: llm: completion \
             failed: string_outliers_detect on lang_b refused",
            "string outliers on \"lang_c\" degraded to statistical-only: llm: completion \
             failed: string_outliers_clean on lang_c refused",
        ]
    );
    let table = &degraded.table;
    let lang = |name: &str| table.column_by_name(name).unwrap().values().to_vec();
    assert_eq!(lang("lang_b"), wide().column_by_name("lang_b").unwrap().values().to_vec());
    assert!(lang("lang_a").iter().all(|v| v.as_text() == Some("eng")));
}
