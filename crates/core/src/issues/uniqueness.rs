//! §2.1.8 Column Uniqueness.
//!
//! Statistical detection computes per-column unique ratios; the LLM decides
//! whether a nearly-unique column should be unique semantically (a primary
//! key), and names a column that prioritises which record survives;
//! cleaning is a `ROW_NUMBER()` window filter.
//!
//! Detect phase (one prompt wave over every column): uniqueness profile →
//! review prompt; the proposal's statement is the window filter, and it has
//! no mapping. Dedup drops rows, so the filter is always compiled against
//! the live table; a `removed == 0` apply (rows already gone) is a no-op.

use crate::ops::IssueKind;
use crate::state::{Answers, Column, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step};
use cocoon_llm::{parse_unique_verdict, prompts};
use cocoon_profile::uniqueness_from_distinct;
use cocoon_sql::{Expr, Projection, RowNumberFilter, Select, SortOrder};

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("uniqueness review on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs uniqueness review over every nearly-unique column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|_| true);
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, degraded);
}

/// Asks the key review of a nearly-unique column; resumes holding the
/// statistical evidence.
fn start(ctx: &DetectCtx<'_>, column: &Column) -> crate::error::Result<Step<String, Proposal>> {
    let profile = uniqueness_from_distinct(ctx.column_census(column.index)?.distinct());
    // Only nearly-unique-but-not-unique columns are worth reviewing: fully
    // unique columns need no repair, low-ratio columns aren't keys.
    if profile.unique_ratio < ctx.config.uniqueness_review_threshold
        || profile.duplicated_values.is_empty()
    {
        return Ok(Step::clean());
    }
    let columns: Vec<String> = ctx.table.schema().names().iter().map(|s| s.to_string()).collect();
    let prompt = prompts::uniqueness_review(&column.name, profile.unique_ratio, &columns);
    let evidence = format!(
        "unique ratio {:.4}; {} duplicated values",
        profile.unique_ratio,
        profile.duplicated_values.len()
    );
    Ok(Step::ask(evidence, prompt))
}

fn resume(
    _ctx: &DetectCtx<'_>,
    column: &Column,
    evidence: String,
    mut answers: Answers,
) -> crate::error::Result<Step<String, Proposal>> {
    let verdict = parse_unique_verdict(&answers.remove(0)?)?;
    if !verdict.should_be_unique {
        return Ok(Step::clean());
    }
    let (name, order_by) = (column.name.clone(), verdict.order_by);
    Ok(Step::Done(Outcome::Finding(Proposal {
        explanation: verdict.reasoning.clone(),
        op_reasoning: None,
        repair: Repair {
            issue: IssueKind::Uniqueness,
            column: Some(column.name.clone()),
            evidence,
            reasoning: verdict.reasoning,
            confidence: verdict.confidence,
        },
        mapping: Vec::new(),
        compile: Box::new(move |table, _| {
            // Window: keep the best row per key, ordered by the LLM-chosen
            // column (latest first) when available, else the first row.
            let order_by = order_by
                .as_deref()
                .filter(|c| table.schema().contains(c))
                .map(|c| vec![(Expr::col(c), SortOrder::Desc)])
                .unwrap_or_default();
            Select {
                distinct: false,
                projections: vec![Projection::Star],
                from: "input".into(),
                where_clause: None,
                qualify: Some(RowNumberFilter {
                    partition_by: vec![Expr::col(&name)],
                    order_by,
                    keep: 1,
                }),
                comment: None,
            }
        }),
        subject: format!("uniqueness dedup on {:?}", column.name),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use crate::ops::CleaningOp;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Table, Value};

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops)
    }

    #[test]
    fn id_column_deduped_keeping_latest() {
        let mut rows: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("r{i}"), format!("2020-01-{:02}", (i % 28) + 1)])
            .collect();
        // One id appears twice; the later update must survive.
        rows.push(vec!["r5".into(), "2021-06-01".into()]);
        let table = Table::from_text_rows(&["record_id", "updated_at"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.height(), 30);
        // r5 keeps the 2021 row.
        let kept: Vec<String> =
            cleaned.rows().filter(|r| r[0] == Value::from("r5")).map(|r| r[1].render()).collect();
        assert_eq!(kept, vec!["2021-06-01".to_string()]);
        assert!(ops[0].rendered_sql().contains("QUALIFY ROW_NUMBER()"));
    }

    #[test]
    fn non_key_column_untouched() {
        // Nearly-unique but semantically not a key.
        let mut rows: Vec<Vec<String>> = (0..30).map(|i| vec![format!("city{i}")]).collect();
        rows.push(vec!["city5".into()]);
        let table = Table::from_text_rows(&["city"], &rows).unwrap();
        let (cleaned, ops) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
    }

    #[test]
    fn fully_unique_key_untouched() {
        let rows: Vec<Vec<String>> = (0..10).map(|i| vec![format!("id{i}")]).collect();
        let table = Table::from_text_rows(&["record_id"], &rows).unwrap();
        let (_, ops) = run_on(table);
        assert!(ops.is_empty());
    }
}
