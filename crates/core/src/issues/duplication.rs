//! §2.1.7 Duplication.
//!
//! Statistical detection finds exact duplicate rows; the LLM decides
//! whether they are semantically acceptable (coarse-grained logging) or
//! erroneous; cleaning is `SELECT DISTINCT`.
//!
//! The whole table is one detection unit, so the detect phase is a single
//! prompt wave of at most one prompt; its proposal has no mapping.

use crate::ops::IssueKind;
use crate::state::{Answers, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step};
use cocoon_llm::{parse_dup_verdict, prompts};
use cocoon_profile::duplicates_from_censuses;
use cocoon_sql::Select;

fn degraded(_: &(), err: &crate::error::CoreError) -> String {
    format!("duplication review degraded to statistical-only: {err}")
}

/// Runs duplicate-row review over the whole table.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let outcomes = state.detect_waves(&[()], start, resume, degraded);
    state.decide_outcomes(&[()], outcomes, degraded);
}

/// Asks the review of the table's exact duplicates; resumes holding the
/// statistical evidence.
fn start(ctx: &DetectCtx<'_>, _: &()) -> crate::error::Result<Step<String, Proposal>> {
    let profile = duplicates_from_censuses(&ctx.table_censuses());
    if profile.duplicate_rows == 0 {
        return Ok(Step::clean());
    }
    let columns: Vec<String> = ctx.table.schema().names().iter().map(|s| s.to_string()).collect();
    let prompt = prompts::duplication_review(profile.duplicate_rows, profile.rows, &columns);
    let evidence = format!(
        "{} of {} rows are exact duplicates ({} groups)",
        profile.duplicate_rows, profile.rows, profile.duplicated_groups
    );
    Ok(Step::ask(evidence, prompt))
}

fn resume(
    _ctx: &DetectCtx<'_>,
    _: &(),
    evidence: String,
    mut answers: Answers,
) -> crate::error::Result<Step<String, Proposal>> {
    let verdict = parse_dup_verdict(&answers.remove(0)?)?;
    if verdict.acceptable {
        return Ok(Step::Done(Outcome::Note(format!(
            "duplicates kept as semantically acceptable: {}",
            verdict.reasoning
        ))));
    }
    Ok(Step::Done(Outcome::Finding(Proposal {
        explanation: verdict.reasoning.clone(),
        op_reasoning: None,
        repair: Repair {
            issue: IssueKind::Duplication,
            column: None,
            evidence,
            reasoning: verdict.reasoning,
            confidence: verdict.confidence,
        },
        mapping: Vec::new(),
        compile: Box::new(|_, _| {
            let mut select = Select::star("input");
            select.distinct = true;
            select
        }),
        subject: "duplicate removal".into(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use crate::ops::CleaningOp;
    use cocoon_llm::SimLlm;
    use cocoon_table::Table;

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>, Vec<String>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops, state.notes)
    }

    #[test]
    fn entity_duplicates_removed() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "a".into()],
            vec!["1".into(), "a".into()],
            vec!["2".into(), "b".into()],
        ];
        let table = Table::from_text_rows(&["id", "name"], &rows).unwrap();
        let (cleaned, ops, _) = run_on(table);
        assert_eq!(cleaned.height(), 2);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].cells_changed, 1);
        assert!(ops[0].rendered_sql().contains("SELECT DISTINCT"));
    }

    #[test]
    fn log_duplicates_kept() {
        let rows: Vec<Vec<String>> =
            vec![vec!["12:00".into(), "42".into()], vec!["12:00".into(), "42".into()]];
        let table = Table::from_text_rows(&["event_time", "reading"], &rows).unwrap();
        let (cleaned, ops, notes) = run_on(table.clone());
        assert_eq!(cleaned, table);
        assert!(ops.is_empty());
        assert!(notes.iter().any(|n| n.contains("acceptable")));
    }

    #[test]
    fn no_duplicates_no_llm_call() {
        use cocoon_llm::{ChatModel, Transcript};
        let rows: Vec<Vec<String>> = vec![vec!["1".into()], vec!["2".into()]];
        let table = Table::from_text_rows(&["id"], &rows).unwrap();
        let llm = Transcript::new(SimLlm::new());
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        let _ = llm.model_name();
        assert_eq!(llm.round_trips(), 0);
        assert!(state.ops.is_empty());
    }
}
