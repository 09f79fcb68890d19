//! The benchmark runner behind `cocoon-eval`: cleans a benchmark case with
//! the full pipeline, scores the output cell-by-cell against ground truth,
//! attributes precision per issue type by replaying each op's SQL,
//! attributes recall per injected error type from the case annotations,
//! measures confidence calibration (ECE) over the applied repairs, and
//! counts what the clean asked of the model.
//!
//! This crate sits *below* `cocoon-datasets` in the dependency order (the
//! generators use [`crate::conventions`] to validate themselves), so the
//! runner takes benchmark cases as plain tables plus label-keyed
//! annotations; the `cocoon-eval` binary adapts the catalog's `Dataset`
//! into a [`BenchCase`].
//!
//! Everything here is deterministic — same catalog seed, same `SimLlm`
//! oracle, same scores, same model round trips and tokens — so the emitted
//! quality report can be committed as a CI baseline and regressions gated
//! with a plain numeric comparison: F1 within an epsilon, cost exactly.

use crate::calibration::expected_calibration_error;
use crate::conventions::Equivalence;
use crate::metrics::{evaluate, EvalCounts, Evaluation};
use cocoon_core::{apply_and_count, CleanerConfig, IssueKind};
use cocoon_llm::{Json, SimLlm, Transcript};
use cocoon_table::Table;
use std::collections::BTreeMap;

/// Number of equal-width confidence bins used for ECE.
pub const ECE_BINS: usize = 10;

/// One annotated injected error: `(row, col, error-type label)`. Labels
/// are the Table-2 headers ("Typo", "FD", "DMV", …).
pub type Annotation = (usize, usize, &'static str);

/// A benchmark case: dirty input, ground truth, error annotations.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Display name ("Hospital", …) — becomes the report key.
    pub name: String,
    /// The dirty table fed to the pipeline.
    pub dirty: Table,
    /// Cell-level ground truth (same shape as `dirty`).
    pub truth: Table,
    /// Cell-level annotations of every injected error.
    pub annotations: Vec<Annotation>,
}

/// Per-issue-type precision counts, measured by replaying the op's SQL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindScore {
    /// Cells this issue type's ops changed.
    pub changes: usize,
    /// Changed cells that match ground truth (lenient convention).
    pub correct: usize,
}

/// Per-error-type recall counts, measured from the case annotations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorRecall {
    /// Injected errors of this type.
    pub errors: usize,
    /// Injected errors whose cell now matches ground truth.
    pub repaired: usize,
}

/// What one clean asked of the model, counted by a [`Transcript`] around
/// the deterministic `SimLlm`, so every figure repeats exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCost {
    /// Calls that reached the model; a batch of prompts is one.
    pub round_trips: usize,
    /// Prompts the model answered.
    pub prompts: usize,
    /// Prompt tokens of the answered prompts.
    pub prompt_tokens: usize,
    /// Completion tokens of the answered prompts.
    pub completion_tokens: usize,
}

impl ModelCost {
    /// Each figure under its report key, in key order.
    fn fields(&self) -> [(&'static str, usize); 4] {
        [
            ("completion_tokens", self.completion_tokens),
            ("prompt_tokens", self.prompt_tokens),
            ("prompts", self.prompts),
            ("round_trips", self.round_trips),
        ]
    }
}

/// Full quality scorecard for one benchmark case.
#[derive(Debug, Clone)]
pub struct DatasetScore {
    /// Case name, as given in [`BenchCase::name`].
    pub name: String,
    /// Table-1 scoring (case/type/DMV forgiveness).
    pub lenient: Evaluation,
    /// Table-3 scoring (representation must match).
    pub strict: Evaluation,
    /// Repairs applied by the pipeline.
    pub ops: usize,
    /// Repairs withheld below the confidence threshold.
    pub pending: usize,
    /// Precision counts per issue type (keyed by [`IssueKind::name`]).
    pub per_issue: BTreeMap<&'static str, KindScore>,
    /// Recall counts per injected error type (keyed by Table-2 label).
    pub per_error: BTreeMap<&'static str, ErrorRecall>,
    /// Expected calibration error over the per-op (confidence, accuracy)
    /// samples, [`ECE_BINS`] bins.
    pub ece: f64,
    /// The raw calibration samples, for reliability rendering.
    pub samples: Vec<(f64, f64)>,
    /// What the clean asked of the model.
    pub cost: ModelCost,
}

/// The detector expected to catch each Table-2 error type — how per-error
/// recall gaps are routed back to a pipeline stage when triaging. Returns
/// `None` for labels outside the Table-2 taxonomy.
pub fn expected_issue(error_label: &str) -> Option<IssueKind> {
    match error_label {
        "Typo" | "Inconsistency" | "Misplacement" => Some(IssueKind::StringOutliers),
        "FD" | "Time Variation" => Some(IssueKind::FunctionalDependency),
        "Column Type" => Some(IssueKind::ColumnType),
        "DMV" => Some(IssueKind::DisguisedMissing),
        _ => None,
    }
}

/// Cleans `case` with the full pipeline under `config` and scores the
/// result. Errors are rendered to strings (the runner reports and moves on).
pub fn score_case(case: &BenchCase, config: &CleanerConfig) -> Result<DatasetScore, String> {
    let cleaner = cocoon_core::Cleaner::with_config(Transcript::new(SimLlm::new()), config.clone())
        .map_err(|e| format!("{}: bad config: {e}", case.name))?;
    let run = cleaner.clean(&case.dirty).map_err(|e| format!("{}: {e}", case.name))?;
    let llm = cleaner.llm();
    let usage = llm.total_usage();
    let cost = ModelCost {
        round_trips: llm.round_trips(),
        prompts: llm.exchange_count(),
        prompt_tokens: usage.prompt_tokens,
        completion_tokens: usage.completion_tokens,
    };

    let lenient = evaluate(&case.dirty, &run.table, &case.truth, Equivalence::Lenient);
    let strict = evaluate(&case.dirty, &run.table, &case.truth, Equivalence::Strict);

    // Replay each op's SQL from the dirty table forward. Diffing the table
    // before/after one op attributes every changed cell to exactly one
    // issue type, and gives the op an accuracy for calibration.
    let mut per_issue: BTreeMap<&'static str, KindScore> = BTreeMap::new();
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut current = case.dirty.clone();
    for op in &run.ops {
        let (next, _) = apply_and_count(&op.sql, &current)
            .map_err(|e| format!("{}: replaying {} op: {e}", case.name, op.issue.name()))?;
        let entry = per_issue.entry(op.issue.name()).or_default();
        if next.height() == current.height() {
            let (changed, correct) = diff_against_truth(&current, &next, &case.truth);
            entry.changes += changed;
            entry.correct += correct;
            if changed > 0 {
                samples.push((op.confidence.score(), correct as f64 / changed as f64));
            }
        } else {
            // Row-dropping op (dedup): cell positions shift, so per-cell
            // attribution is undefined; count the change volume only.
            entry.changes += op.cells_changed;
        }
        current = next;
    }

    // Recall per injected error type, from the annotations.
    let mut per_error: BTreeMap<&'static str, ErrorRecall> = BTreeMap::new();
    for &(row, col, label) in &case.annotations {
        let entry = per_error.entry(label).or_default();
        entry.errors += 1;
        if row < run.table.height() && col < run.table.width() {
            let out = run.table.cell(row, col).expect("in range");
            let truth = case.truth.cell(row, col).expect("in range");
            if crate::conventions::values_equivalent(out, truth, Equivalence::Lenient) {
                entry.repaired += 1;
            }
        }
    }

    Ok(DatasetScore {
        name: case.name.clone(),
        lenient,
        strict,
        ops: run.ops.len(),
        pending: run.pending.len(),
        per_issue,
        per_error,
        ece: expected_calibration_error(&samples, ECE_BINS),
        samples,
        cost,
    })
}

/// Counts cells where `next` differs from `current`, and how many of those
/// now match `truth` (lenient convention). Tables must share dimensions.
fn diff_against_truth(current: &Table, next: &Table, truth: &Table) -> (usize, usize) {
    let mut changed = 0;
    let mut correct = 0;
    for r in 0..current.height().min(truth.height()) {
        for c in 0..current.width().min(truth.width()) {
            let before = current.cell(r, c).expect("in range");
            let after = next.cell(r, c).expect("in range");
            if before == after {
                continue;
            }
            changed += 1;
            let truth_v = truth.cell(r, c).expect("in range");
            if crate::conventions::values_equivalent(after, truth_v, Equivalence::Lenient) {
                correct += 1;
            }
        }
    }
    (changed, correct)
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn evaluation_json(e: &Evaluation) -> Json {
    let EvalCounts { errors, changes, correct_repairs, repaired_errors } = e.counts;
    Json::object([
        ("changes".to_string(), Json::Number(changes as f64)),
        ("correct_repairs".to_string(), Json::Number(correct_repairs as f64)),
        ("errors".to_string(), Json::Number(errors as f64)),
        ("f1".to_string(), Json::Number(round6(e.prf.f1))),
        ("precision".to_string(), Json::Number(round6(e.prf.precision))),
        ("recall".to_string(), Json::Number(round6(e.prf.recall))),
        ("repaired_errors".to_string(), Json::Number(repaired_errors as f64)),
    ])
}

/// Renders one scorecard as JSON (keys sorted, values rounded — byte-stable
/// across runs).
pub fn score_json(score: &DatasetScore) -> Json {
    let per_issue = Json::object(score.per_issue.iter().map(|(name, k)| {
        (
            name.to_string(),
            Json::object([
                ("changes".to_string(), Json::Number(k.changes as f64)),
                ("correct".to_string(), Json::Number(k.correct as f64)),
            ]),
        )
    }));
    let per_error = Json::object(score.per_error.iter().map(|(label, r)| {
        (
            label.to_string(),
            Json::object([
                ("errors".to_string(), Json::Number(r.errors as f64)),
                ("repaired".to_string(), Json::Number(r.repaired as f64)),
            ]),
        )
    }));
    let cost = Json::object(
        score.cost.fields().map(|(key, value)| (key.to_string(), Json::Number(value as f64))),
    );
    Json::object([
        ("cost".to_string(), cost),
        ("ece".to_string(), Json::Number(round6(score.ece))),
        ("lenient".to_string(), evaluation_json(&score.lenient)),
        ("ops".to_string(), Json::Number(score.ops as f64)),
        ("pending".to_string(), Json::Number(score.pending as f64)),
        ("per_error_recall".to_string(), per_error),
        ("per_issue_precision".to_string(), per_issue),
        ("strict".to_string(), evaluation_json(&score.strict)),
    ])
}

/// Renders the full quality report (all scored cases) as JSON — the
/// document committed as the CI baseline.
pub fn quality_report(scores: &[DatasetScore]) -> Json {
    let datasets = Json::object(scores.iter().map(|s| (s.name.clone(), score_json(s))));
    Json::object([
        ("datasets".to_string(), datasets),
        ("ece_bins".to_string(), Json::Number(ECE_BINS as f64)),
        ("schema_version".to_string(), Json::Number(1.0)),
    ])
}

/// One baseline-comparison violation, human-readable.
pub type GateViolation = String;

/// Compares fresh scores against a committed baseline report.
///
/// A case regresses when its lenient F1 drops more than `epsilon` below
/// the baseline, its ECE exceeds `max_ece`, or any of its
/// [`ModelCost`] figures rises above the baseline's at all: `SimLlm` is
/// deterministic, so cost needs no epsilon. Cases in the baseline but not
/// in `scores` are ignored (partial runs gate only what they ran); cases
/// missing from the baseline are new and pass, and so does a baseline
/// entry without cost figures.
pub fn check_against_baseline(
    scores: &[DatasetScore],
    baseline: &Json,
    epsilon: f64,
    max_ece: f64,
) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    let baseline_datasets = baseline.get("datasets");
    for score in scores {
        if score.ece > max_ece {
            violations
                .push(format!("{}: ECE {:.4} exceeds bound {:.4}", score.name, score.ece, max_ece));
        }
        let Some(old) = baseline_datasets.and_then(|d| d.get(&score.name)) else {
            continue;
        };
        for (key, value) in score.cost.fields() {
            let old_value = old.get("cost").and_then(|c| c.get(key)).and_then(Json::as_f64);
            if let Some(old_value) = old_value.filter(|&old_value| value as f64 > old_value) {
                violations
                    .push(format!("{}: {key} {value} rose above baseline {old_value}", score.name));
            }
        }
        let Some(old_f1) = old.get("lenient").and_then(|l| l.get("f1")).and_then(Json::as_f64)
        else {
            violations.push(format!("{}: baseline entry has no lenient.f1", score.name));
            continue;
        };
        if score.lenient.prf.f1 < old_f1 - epsilon {
            violations.push(format!(
                "{}: lenient F1 {:.4} regressed below baseline {:.4} (epsilon {:.4})",
                score.name, score.lenient.prf.f1, old_f1, epsilon
            ));
        }
    }
    violations
}

/// Renders scores as an aligned text table (for `--format text`).
pub fn render_scores_text(scores: &[DatasetScore]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:>6} {:>6}  {:>6} {:>6} {:>6}  {:>6} {:>4} {:>7}  {:>6} {:>7} {:>7}\n",
        "dataset",
        "P",
        "R",
        "F1",
        "sP",
        "sR",
        "sF1",
        "ECE",
        "ops",
        "pending",
        "calls",
        "prompts",
        "tokens"
    ));
    for s in scores {
        out.push_str(&format!(
            "{:<10} {:>6.3} {:>6.3} {:>6.3}  {:>6.3} {:>6.3} {:>6.3}  {:>6.3} {:>4} {:>7}  {:>6} {:>7} {:>7}\n",
            s.name,
            s.lenient.prf.precision,
            s.lenient.prf.recall,
            s.lenient.prf.f1,
            s.strict.prf.precision,
            s.strict.prf.recall,
            s.strict.prf.f1,
            s.ece,
            s.ops,
            s.pending,
            s.cost.round_trips,
            s.cost.prompts,
            s.cost.prompt_tokens + s.cost.completion_tokens,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // A tiny Rayyan-like case: a language column with a frequent code and
    // rare full-name variants (string outliers), plus a DMV.
    fn tiny_case() -> BenchCase {
        // The id column keeps rows distinct (otherwise the duplication
        // stage legitimately collapses the table).
        let mut rows: Vec<Vec<String>> = Vec::new();
        for i in 0..20 {
            rows.push(vec![format!("a{i:03}"), "eng".into()]);
        }
        rows.push(vec!["a020".into(), "English".into()]);
        rows.push(vec!["a021".into(), "N/A".into()]);
        let dirty = Table::from_text_rows(&["article_id", "article_language"], &rows).unwrap();
        let mut truth = dirty.clone();
        truth.set_cell(20, 1, cocoon_table::Value::from("eng")).unwrap();
        truth.set_cell(21, 1, cocoon_table::Value::Null).unwrap();
        BenchCase {
            name: "Tiny".into(),
            dirty,
            truth,
            annotations: vec![(20, 1, "Inconsistency"), (21, 1, "DMV")],
        }
    }

    fn tiny_score() -> DatasetScore {
        score_case(&tiny_case(), &CleanerConfig::default()).unwrap()
    }

    #[test]
    fn scores_a_case_end_to_end() {
        let score = tiny_score();
        assert_eq!(score.name, "Tiny");
        assert!(score.ops > 0, "pipeline should repair something");
        assert_eq!(score.pending, 0, "default threshold applies everything");
        assert!(score.lenient.prf.f1 > 0.0, "some repairs should be correct");
        assert!(score.lenient.prf.f1 >= score.strict.prf.f1 - 1e-12);
        assert!((0.0..=1.0).contains(&score.ece));
        assert!(!score.samples.is_empty());
        // Both injected errors are attributed and repaired.
        assert_eq!(score.per_error["Inconsistency"], ErrorRecall { errors: 1, repaired: 1 });
        assert_eq!(score.per_error["DMV"].errors, 1);
        // Per-issue changes account for cells the pipeline changed.
        let attributed: usize = score.per_issue.values().map(|k| k.changes).sum();
        assert!(attributed > 0);
    }

    #[test]
    fn report_is_deterministic_and_parseable() {
        let a = quality_report(&[tiny_score()]).to_string();
        let b = quality_report(&[tiny_score()]).to_string();
        assert_eq!(a, b, "same case, same oracle, same bytes");
        let parsed = cocoon_llm::json::parse(&a).unwrap();
        assert!(parsed.get("datasets").and_then(|d| d.get("Tiny")).is_some());
        assert_eq!(parsed.get("schema_version").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn baseline_gate_catches_regressions() {
        let score = tiny_score();
        let baseline = quality_report(std::slice::from_ref(&score));

        // Fresh scores against their own report: no violations.
        let ok = check_against_baseline(std::slice::from_ref(&score), &baseline, 0.01, 1.0);
        assert!(ok.is_empty(), "{ok:?}");

        // A baseline claiming a higher F1 than measured: regression reported.
        let inflated = cocoon_llm::json::parse(&format!(
            "{{\"datasets\": {{\"Tiny\": {{\"lenient\": {{\"f1\": {}}}}}}}}}",
            score.lenient.prf.f1 + 0.5
        ))
        .unwrap();
        let bad = check_against_baseline(std::slice::from_ref(&score), &inflated, 0.01, 1.0);
        assert!(bad.iter().any(|v| v.contains("regressed")), "{bad:?}");

        // ECE bound below the measured value: violation names the bound.
        let bad =
            check_against_baseline(std::slice::from_ref(&score), &baseline, 0.01, score.ece - 1e-9);
        assert!(score.ece > 0.0 || bad.is_empty());
        if score.ece > 0.0 {
            assert!(bad.iter().any(|v| v.contains("ECE")), "{bad:?}");
        }
    }

    #[test]
    fn cost_gate_fails_any_rise_and_passes_a_baseline_without_cost() {
        let score = tiny_score();
        assert!(score.cost.round_trips > 0);
        assert!(score.cost.prompts >= score.cost.round_trips, "{:?}", score.cost);
        assert!(score.cost.prompt_tokens > 0 && score.cost.completion_tokens > 0);
        let f1 = score.lenient.prf.f1;
        let baseline = |cost: &str| {
            cocoon_llm::json::parse(&format!(
                "{{\"datasets\": {{\"Tiny\": {{\"lenient\": {{\"f1\": {f1}}}{cost}}}}}}}"
            ))
            .unwrap()
        };
        let check = |baseline: &Json| {
            check_against_baseline(std::slice::from_ref(&score), baseline, 0.0, 1.0)
        };
        // Equal cost passes, and so does a baseline entry without cost.
        assert!(check(&quality_report(std::slice::from_ref(&score))).is_empty());
        assert!(check(&baseline("")).is_empty());
        // A baseline that recorded one round trip fewer fails the score,
        // with no epsilon; one that recorded more tokens passes it.
        let fewer = format!(", \"cost\": {{\"round_trips\": {}}}", score.cost.round_trips - 1);
        let bad = check(&baseline(&fewer));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("round_trips") && bad[0].contains("rose above"), "{bad:?}");
        let more = format!(", \"cost\": {{\"prompt_tokens\": {}}}", score.cost.prompt_tokens + 1);
        assert!(check(&baseline(&more)).is_empty());
    }

    #[test]
    fn every_table2_label_maps_to_a_detector() {
        for label in
            ["Typo", "FD", "Column Type", "Inconsistency", "DMV", "Misplacement", "Time Variation"]
        {
            assert!(expected_issue(label).is_some(), "{label} unmapped");
        }
        assert!(expected_issue("Not A Label").is_none());
    }

    #[test]
    fn text_rendering_lists_every_case() {
        let score = tiny_score();
        let text = render_scores_text(std::slice::from_ref(&score));
        assert!(text.contains("Tiny"));
        assert!(text.lines().count() >= 2);
    }
}
