//! §2.1.5 Numeric Outliers.
//!
//! Statistical detection captures min/max (and quartiles); the LLM reviews
//! the acceptable range semantically; cleaning thresholds with a
//! `CASE WHEN` that nulls values outside the range.
//!
//! Runs after the column-type step (§2.1 ordering note: "Only when the
//! column is cast … can we show the distribution for numeric outliers").
//! Detect phase (one prompt wave over the numeric columns): profile →
//! range prompt → offender count; the proposal's statement nulls the values
//! outside the accepted range, and it has no mapping.

use crate::apply::column_rewrite_select;
use crate::ops::IssueKind;
use crate::state::{Answers, Column, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step};
use cocoon_llm::{parse_range_verdict, prompts};
use cocoon_profile::{numeric_from_distinct, NumericStats};
use cocoon_sql::{BinaryOp, Expr};

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("numeric outliers on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs numeric-outlier review over every numeric column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|ty| ty.is_numeric());
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, degraded);
}

/// Asks the range review of the column's distribution; resumes holding its
/// statistics.
fn start(
    ctx: &DetectCtx<'_>,
    column: &Column,
) -> crate::error::Result<Step<NumericStats, Proposal>> {
    let Some(profile) = numeric_from_distinct(ctx.column_census(column.index)?.distinct()) else {
        return Ok(Step::clean());
    };
    let stats = profile.stats;
    let prompt = prompts::numeric_range(&column.name, stats.min, stats.max, stats.q1, stats.q3);
    Ok(Step::ask(stats, prompt))
}

fn resume(
    ctx: &DetectCtx<'_>,
    column: &Column,
    stats: NumericStats,
    mut answers: Answers,
) -> crate::error::Result<Step<NumericStats, Proposal>> {
    let verdict = parse_range_verdict(&answers.remove(0)?)?;
    let (low, high) = (verdict.low, verdict.high);
    if low.is_none() && high.is_none() {
        return Ok(Step::clean());
    }

    // Count offenders before committing to an op.
    let offenders = ctx
        .table
        .column(column.index)?
        .non_null()
        .filter_map(|v| v.as_f64())
        .filter(|x| low.is_some_and(|l| *x < l) || high.is_some_and(|h| *x > h))
        .count();
    if offenders == 0 {
        return Ok(Step::clean());
    }
    let evidence = format!(
        "observed range [{}, {}]; {} values outside accepted [{}, {}]",
        stats.min,
        stats.max,
        offenders,
        low.map(|v| v.to_string()).unwrap_or_else(|| "-∞".into()),
        high.map(|v| v.to_string()).unwrap_or_else(|| "+∞".into()),
    );
    let name = column.name.clone();
    Ok(Step::Done(Outcome::Finding(Proposal {
        explanation: verdict.reasoning.clone(),
        op_reasoning: None,
        repair: Repair {
            issue: IssueKind::NumericOutliers,
            column: Some(column.name.clone()),
            evidence,
            reasoning: verdict.reasoning,
            confidence: verdict.confidence,
        },
        mapping: Vec::new(),
        compile: Box::new(move |table, _| {
            // CASE WHEN col < low OR col > high THEN NULL ELSE col END
            let mut condition: Option<Expr> = None;
            if let Some(l) = low {
                condition = Some(Expr::binary(BinaryOp::Lt, Expr::col(&name), Expr::lit(l)));
            }
            if let Some(h) = high {
                let gt = Expr::binary(BinaryOp::Gt, Expr::col(&name), Expr::lit(h));
                condition = Some(match condition {
                    Some(c) => Expr::or(c, gt),
                    None => gt,
                });
            }
            let expr = Expr::Case {
                operand: None,
                arms: vec![(condition.expect("at least one bound"), Expr::null())],
                otherwise: Some(Box::new(Expr::col(&name))),
            };
            column_rewrite_select(table, &name, expr)
        }),
        subject: format!("numeric outliers on {:?}", column.name),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use crate::ops::CleaningOp;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Column as TableColumn, DataType, Field, Schema, Table, Value};

    fn numeric_table(name: &str, values: &[f64]) -> Table {
        let schema = Schema::new(vec![Field::new(name, DataType::Float)]).unwrap();
        let column = TableColumn::new(values.iter().map(|&v| Value::Float(v)).collect());
        Table::new(schema, vec![column]).unwrap()
    }

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops)
    }

    #[test]
    fn rating_outlier_nulled_by_domain_knowledge() {
        // imdb-style rating column: 99 is impossible.
        let (cleaned, ops) = run_on(numeric_table("rating", &[7.5, 8.0, 6.5, 99.0, 5.0]));
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.cell(3, 0).unwrap(), &Value::Null);
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Float(7.5));
        assert!(ops[0].rendered_sql().contains("THEN NULL"));
    }

    #[test]
    fn far_out_statistical_outlier_nulled_without_domain_cue() {
        let mut values: Vec<f64> = (1..=50).map(f64::from).collect();
        values.push(1_000_000.0);
        let (cleaned, ops) = run_on(numeric_table("mystery", &values));
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.cell(50, 0).unwrap(), &Value::Null);
    }

    #[test]
    fn in_range_column_untouched() {
        let (cleaned, ops) = run_on(numeric_table("rating", &[7.5, 8.0, 6.5]));
        assert!(ops.is_empty());
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Float(7.5));
    }

    #[test]
    fn text_columns_skipped() {
        let rows: Vec<Vec<String>> = vec![vec!["a".into()]];
        let table = Table::from_text_rows(&["x"], &rows).unwrap();
        let (_, ops) = run_on(table);
        assert!(ops.is_empty());
    }
}
