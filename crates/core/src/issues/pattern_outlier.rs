//! §2.1.2 Pattern Outliers: inconsistent value shapes.
//!
//! Statistical detection groups a column's values by regex-shape digest;
//! the LLM reviews the shapes, proposes meaningful patterns (verified here
//! against the data, the paper's "verify them with SQL"), and supplies
//! regex transformations; cleaning compiles to nested `REGEXP_REPLACE`.
//!
//! Detect phase (one prompt wave over the text columns): shape census →
//! review prompt → pattern verification; the proposal's statement chains
//! the plan's verified transforms, and it has no mapping.

use crate::apply::column_rewrite_select;
use crate::ops::IssueKind;
use crate::state::{Answers, Column, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step};
use cocoon_llm::{parse_pattern_plan, prompts};
use cocoon_pattern::Regex;
use cocoon_profile::pattern_census_from_distinct;
use cocoon_sql::Expr;
use cocoon_table::DataType;

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("pattern outliers on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs pattern-outlier detection and cleaning over every text column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|ty| ty == DataType::Text);
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, degraded);
}

/// Asks the review of the column's value shapes; resumes holding how many
/// shapes there were.
fn start(ctx: &DetectCtx<'_>, column: &Column) -> crate::error::Result<Step<usize, Proposal>> {
    let values = ctx.column_census(column.index)?;
    let census = pattern_census_from_distinct(values.distinct(), values.null_count(), true);
    if census.buckets.len() < 2 {
        return Ok(Step::clean());
    }
    let buckets: Vec<(String, usize, Vec<String>)> = census
        .buckets
        .iter()
        .take(50)
        .map(|b| (b.pattern.clone(), b.count, b.examples.clone()))
        .collect();
    let prompt = prompts::pattern_review(&column.name, &buckets);
    Ok(Step::ask(census.buckets.len(), prompt))
}

fn resume(
    ctx: &DetectCtx<'_>,
    column: &Column,
    shapes: usize,
    mut answers: Answers,
) -> crate::error::Result<Step<usize, Proposal>> {
    let plan = parse_pattern_plan(&answers.remove(0)?)?;
    if !plan.inconsistent || plan.transforms.is_empty() {
        return Ok(Step::clean());
    }

    // Validate transforms compile before emitting SQL.
    let valid_transforms: Vec<(String, String)> =
        plan.transforms.iter().filter(|(p, _)| Regex::new(p).is_ok()).cloned().collect();
    if valid_transforms.is_empty() {
        return Ok(Step::clean());
    }

    // Verify the proposed patterns against the data ("verify them with
    // SQL"): each must compile, and together they should cover most values.
    // Only a finding carries this evidence, so a clean column skips it.
    let compiled: Vec<Regex> = plan.patterns.iter().filter_map(|p| Regex::new(p).ok()).collect();
    let distinct = ctx.census(column.index, ctx.config.sample_size);
    let covered =
        distinct.iter().filter(|(v, _)| compiled.iter().any(|re| re.full_match(v))).count();
    let evidence = format!(
        "{} value shapes; {} proposed patterns cover {}/{} distinct values",
        shapes,
        compiled.len(),
        covered,
        distinct.len()
    );
    let name = column.name.clone();
    Ok(Step::Done(Outcome::Finding(Proposal {
        explanation: plan.reasoning.clone(),
        op_reasoning: None,
        repair: Repair {
            issue: IssueKind::PatternOutliers,
            column: Some(column.name.clone()),
            evidence,
            reasoning: plan.reasoning,
            confidence: plan.confidence,
        },
        mapping: Vec::new(),
        compile: Box::new(move |table, _| {
            // REGEXP_REPLACE(…(REGEXP_REPLACE(col, p1, r1))…, pn, rn)
            let mut expr = Expr::col(&name);
            for (pattern, replacement) in &valid_transforms {
                expr = Expr::func(
                    "REGEXP_REPLACE",
                    vec![expr, Expr::lit(pattern.as_str()), Expr::lit(replacement.as_str())],
                );
            }
            column_rewrite_select(table, &name, expr)
        }),
        subject: format!("pattern outliers on {:?}", column.name),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Table, Value};

    fn mixed_dates() -> Table {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for _ in 0..20 {
            rows.push(vec!["01/02/2003".into()]);
        }
        for _ in 0..3 {
            rows.push(vec!["2003-04-05".into()]);
        }
        Table::from_text_rows(&["admission_date"], &rows).unwrap()
    }

    #[test]
    fn standardises_minority_date_format() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(mixed_dates(), &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        let op = &state.ops[0];
        assert_eq!(op.issue, IssueKind::PatternOutliers);
        assert_eq!(op.cells_changed, 3);
        // Every ISO date now follows the dominant slash form.
        assert_eq!(state.table.cell(20, 0).unwrap(), &Value::from("04/05/2003"));
        assert!(op.rendered_sql().contains("REGEXP_REPLACE"));
    }

    #[test]
    fn consistent_shapes_untouched() {
        let rows: Vec<Vec<String>> = (0..10).map(|i| vec![format!("0{i}/01/2000")]).collect();
        let table = Table::from_text_rows(&["d"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
    }

    #[test]
    fn non_date_shape_mix_not_rewritten() {
        // Codes of different lengths are not "inconsistent dates".
        let rows: Vec<Vec<String>> =
            vec![vec!["AB12".into()], vec!["XYZ999".into()], vec!["Q1".into()]];
        let table = Table::from_text_rows(&["code"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table, table);
    }
}
