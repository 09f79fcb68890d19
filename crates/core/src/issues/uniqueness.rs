//! §2.1.8 Column Uniqueness.
//!
//! Statistical detection computes per-column unique ratios; the LLM decides
//! whether a nearly-unique column should be unique semantically (a primary
//! key), and names a column that prioritises which record survives;
//! cleaning is a `ROW_NUMBER()` window filter.
//!
//! Detect phase (concurrent, per column): uniqueness profile → review
//! prompt. Decide phase (sequential): hook review → window filter → apply.
//! Dedup drops rows, so the filter is always applied against the live
//! table; a `removed == 0` apply (rows already gone) is a no-op.

use crate::apply::apply_and_count;
use crate::decision::{Decision, DetectionReview};
use crate::ops::{CleaningOp, Confidence, IssueKind};
use crate::state::{DetectCtx, Outcome, PipelineState};
use cocoon_llm::{parse_unique_verdict, prompts};
use cocoon_profile::uniqueness_profile;
use cocoon_sql::{Expr, Projection, RowNumberFilter, Select, SortOrder};

struct Finding {
    column: String,
    evidence: String,
    reasoning: String,
    order_by: Option<String>,
    confidence: Option<f64>,
}

fn degraded(column: &str, err: &crate::error::CoreError) -> String {
    format!("uniqueness review on {column:?} degraded to statistical-only: {err}")
}

/// Runs uniqueness review over every nearly-unique column.
pub fn run(state: &mut PipelineState<'_>) {
    let outcomes = state.detect_columns(detect_column);
    state.decide_outcomes(outcomes, decide, |finding, err| degraded(&finding.column, err));
}

fn detect_column(ctx: &DetectCtx<'_>, index: usize) -> Outcome<Finding> {
    let Ok(field) = ctx.table.schema().field(index) else { return Outcome::Clean };
    let column = field.name().to_string();
    match detect_inner(ctx, index, &column) {
        Ok(outcome) => outcome,
        Err(err) => Outcome::Note(degraded(&column, &err)),
    }
}

fn detect_inner(
    ctx: &DetectCtx<'_>,
    index: usize,
    column: &str,
) -> crate::error::Result<Outcome<Finding>> {
    let profile = uniqueness_profile(ctx.table.column(index)?);
    // Only nearly-unique-but-not-unique columns are worth reviewing: fully
    // unique columns need no repair, low-ratio columns aren't keys.
    if profile.unique_ratio < ctx.config.uniqueness_review_threshold
        || profile.duplicated_values.is_empty()
    {
        return Ok(Outcome::Clean);
    }
    let columns: Vec<String> = ctx.table.schema().names().iter().map(|s| s.to_string()).collect();
    let response = ctx.ask(prompts::uniqueness_review(column, profile.unique_ratio, &columns))?;
    let verdict = parse_unique_verdict(&response)?;
    if !verdict.should_be_unique {
        return Ok(Outcome::Clean);
    }
    let evidence = format!(
        "unique ratio {:.4}; {} duplicated values",
        profile.unique_ratio,
        profile.duplicated_values.len()
    );
    Ok(Outcome::Finding(Finding {
        column: column.to_string(),
        evidence,
        reasoning: verdict.reasoning,
        order_by: verdict.order_by,
        confidence: verdict.confidence,
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding) -> crate::error::Result<()> {
    let column = finding.column.as_str();
    let detection = DetectionReview {
        issue: IssueKind::Uniqueness,
        column: Some(column),
        statistical_evidence: &finding.evidence,
        llm_reasoning: &finding.reasoning,
    };
    if state.hook.review_detection(&detection) == Decision::Reject {
        state.note(format!("uniqueness dedup on {column:?} rejected by reviewer"));
        return Ok(());
    }
    // Window: keep the best row per key, ordered by the LLM-chosen column
    // (latest first) when available, else the first row.
    let order_by = finding
        .order_by
        .as_deref()
        .filter(|c| state.table.schema().contains(c))
        .map(|c| vec![(Expr::col(c), SortOrder::Desc)])
        .unwrap_or_default();
    let select = Select {
        distinct: false,
        projections: vec![Projection::Star],
        from: "input".into(),
        where_clause: None,
        qualify: Some(RowNumberFilter { partition_by: vec![Expr::col(column)], order_by, keep: 1 }),
        comment: None,
    };
    let (table, removed) = apply_and_count(&select, &state.table)?;
    if removed == 0 {
        return Ok(());
    }
    state.commit_op(
        table,
        CleaningOp {
            issue: IssueKind::Uniqueness,
            column: Some(column.to_string()),
            statistical_evidence: finding.evidence.clone(),
            llm_reasoning: finding.reasoning.clone(),
            sql: select,
            cells_changed: removed,
            confidence: Confidence::self_reported(finding.confidence),
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
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
