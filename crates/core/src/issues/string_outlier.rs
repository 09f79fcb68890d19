//! §2.1.1 String Outliers: typos and inconsistent representations.
//!
//! Statistical detection samples the most frequent distinct values (default
//! 1000); semantic detection is the Figure 2 prompt; semantic cleaning is
//! the Figure 3 prompt, one per value batch; the repair compiles to a
//! `CASE WHEN` value map.
//!
//! Detect phase (prompt waves over the text columns): census → detect
//! prompt in the first wave; the flagged columns' cleaning-map prompts, one
//! per value batch, all go in the second, and their maps, joined, are the
//! proposal (its confidence the weakest self-report across the detect and
//! clean completions).

use crate::apply::{restrict_mapping, value_map_rule};
use crate::ops::IssueKind;
use crate::state::{
    weakest, Answers, Column, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step,
};
use cocoon_llm::prompts;
use cocoon_llm::{parse_cleaning_map, parse_detect_verdict, DetectVerdict};
use cocoon_profile::batches;
use cocoon_table::DataType;

/// What a column waits on: its detect verdict (holding the census), then
/// its cleaning maps (holding the value batches they were asked about).
enum Asked {
    Verdict(Vec<(String, usize)>),
    Maps { value_batches: Vec<Vec<(String, usize)>>, verdict: DetectVerdict, evidence: String },
}

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("string outliers on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs string-outlier detection and cleaning over every text column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|ty| ty == DataType::Text);
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, degraded);
}

/// Statistical detection, then the semantic detection prompt (Figure 2).
fn start(ctx: &DetectCtx<'_>, column: &Column) -> crate::error::Result<Step<Asked, Proposal>> {
    let census = ctx.census(column.index, ctx.config.sample_size);
    if census.len() < 2 {
        return Ok(Step::clean());
    }
    let prompt = prompts::string_outliers_detect(&column.name, &census);
    Ok(Step::ask(Asked::Verdict(census), prompt))
}

fn resume(
    ctx: &DetectCtx<'_>,
    column: &Column,
    asked: Asked,
    mut answers: Answers,
) -> crate::error::Result<Step<Asked, Proposal>> {
    match asked {
        Asked::Verdict(census) => {
            let verdict = parse_detect_verdict(&answers.remove(0)?)?;
            if !verdict.unusual {
                return Ok(Step::clean());
            }
            let evidence = format!(
                "{} distinct values sampled by frequency (top {})",
                census.len(),
                ctx.config.sample_size
            );
            // Semantic cleaning (Figure 3): one prompt per value batch, all
            // in the next wave, so the decide phase needs no completions.
            let value_batches = batches(&census, ctx.config.batch_size);
            let clean_prompts = value_batches
                .iter()
                .map(|batch| prompts::string_outliers_clean(&column.name, &verdict.summary, batch))
                .collect();
            Ok(Step::Ask(Asked::Maps { value_batches, verdict, evidence }, clean_prompts))
        }
        Asked::Maps { value_batches, verdict, evidence } => {
            let mut mapping: Vec<(String, String)> = Vec::new();
            let mut explanations: Vec<String> = Vec::new();
            let mut confidence = verdict.confidence;
            for (batch, response) in value_batches.iter().zip(answers) {
                let map = parse_cleaning_map(&response?)?;
                if !map.explanation.is_empty() {
                    explanations.push(map.explanation.clone());
                }
                confidence = weakest(confidence, map.confidence);
                mapping.extend(restrict_mapping(&map.mapping, batch));
            }
            if mapping.is_empty() {
                return Ok(Step::clean());
            }
            let explanation = explanations.join(" ");
            Ok(Step::Done(Outcome::Finding(Proposal {
                op_reasoning: Some(format!("{} {explanation}", verdict.reasoning)),
                repair: Repair {
                    issue: IssueKind::StringOutliers,
                    column: Some(column.name.clone()),
                    evidence,
                    reasoning: verdict.reasoning,
                    confidence,
                },
                explanation,
                mapping,
                compile: value_map_rule(column.name.clone()),
                subject: format!("string outliers on {:?}", column.name),
            })))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::{FailingLlm, SimLlm};
    use cocoon_table::{Column as TableColumn, Field, Schema, Table, Value};

    fn rayyan_like() -> Table {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for _ in 0..40 {
            rows.push(vec!["eng".into()]);
        }
        for _ in 0..9 {
            rows.push(vec!["English".into()]);
        }
        for _ in 0..5 {
            rows.push(vec!["fre".into()]);
        }
        rows.push(vec!["French".into()]);
        Table::from_text_rows(&["article_language"], &rows).unwrap()
    }

    #[test]
    fn example1_end_to_end() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        let op = &state.ops[0];
        assert_eq!(op.issue, IssueKind::StringOutliers);
        assert_eq!(op.cells_changed, 10); // 9 English + 1 French
                                          // Every cell now uses ISO codes.
        let col = state.table.column(0).unwrap();
        assert!(col.values().iter().all(|v| { matches!(v.as_text(), Some("eng") | Some("fre")) }));
        // SQL artifact mentions the CASE map.
        assert!(op.rendered_sql().contains("WHEN 'English' THEN 'eng'"));
    }

    #[test]
    fn clean_column_untouched() {
        let rows: Vec<Vec<String>> = vec![vec!["eng".into()], vec!["fre".into()]];
        let table = Table::from_text_rows(&["lang"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table, table);
    }

    #[test]
    fn llm_failure_degrades_gracefully() {
        let llm = FailingLlm;
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.notes.len(), 1);
        assert!(state.notes[0].contains("degraded"));
    }

    #[test]
    fn reviewer_can_reject() {
        use crate::decision::RejectIssues;
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = RejectIssues { rejected: vec![IssueKind::StringOutliers] };
        let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert!(state.notes[0].contains("rejected"));
    }

    #[test]
    fn non_text_columns_skipped() {
        let schema = Schema::new(vec![Field::new("n", DataType::Int)]).unwrap();
        let column = TableColumn::new(vec![Value::Int(1), Value::Int(2)]);
        let table = Table::new(schema, vec![column]).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table.cell(0, 0).unwrap(), &Value::Int(1));
    }

    #[test]
    fn detection_is_identical_across_thread_counts() {
        let run_at = |threads: usize| {
            let llm = SimLlm::new();
            let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
            let mut hook = AutoApprove;
            let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
            run(&mut state);
            (state.table, state.ops.len(), state.notes)
        };
        assert_eq!(run_at(1), run_at(8));
    }
}
