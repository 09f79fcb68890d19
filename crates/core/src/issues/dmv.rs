//! §2.1.3 Disguised Missing Values.
//!
//! Statistical detection shows the column's values; the LLM identifies
//! not-NULL values that semantically mean "missing" ("N/A", "null", "-");
//! cleaning is `CASE WHEN … THEN NULL`.
//!
//! Detect phase (one prompt wave over the text columns): census → DMV
//! prompt → token filter; the proposal maps each token to "" (the Figure 3
//! convention: an empty new value means NULL), and the verdict's reasoning
//! explains its cleaning too.

use crate::apply::value_map_rule;
use crate::ops::IssueKind;
use crate::state::{Answers, Column, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step};
use cocoon_llm::{parse_dmv_verdict, prompts};
use cocoon_table::DataType;

/// What a column's DMV prompt was shown: its census and numeric share.
struct Asked {
    census: Vec<(String, usize)>,
    numeric_share: f64,
}

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("DMV detection on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs DMV detection and cleaning over every text column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|ty| ty == DataType::Text);
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, degraded);
}

fn start(ctx: &DetectCtx<'_>, column: &Column) -> crate::error::Result<Step<Asked, Proposal>> {
    let census = ctx.census(column.index, ctx.config.sample_size);
    if census.is_empty() {
        return Ok(Step::clean());
    }
    // Numeric share guides whether sentinel values (9999, -1) count as DMVs.
    let total: usize = census.iter().map(|(_, c)| c).sum();
    let numeric: usize =
        census.iter().filter(|(v, _)| v.trim().parse::<f64>().is_ok()).map(|(_, c)| c).sum();
    let numeric_share = if total == 0 { 0.0 } else { numeric as f64 / total as f64 };
    let prompt = prompts::dmv_detect(&column.name, &census, numeric_share);
    Ok(Step::ask(Asked { census, numeric_share }, prompt))
}

fn resume(
    _ctx: &DetectCtx<'_>,
    column: &Column,
    Asked { census, numeric_share }: Asked,
    mut answers: Answers,
) -> crate::error::Result<Step<Asked, Proposal>> {
    let verdict = parse_dmv_verdict(&answers.remove(0)?)?;
    let tokens: Vec<String> =
        verdict.tokens.into_iter().filter(|t| census.iter().any(|(v, _)| v == t)).collect();
    if tokens.is_empty() {
        return Ok(Step::clean());
    }

    let evidence =
        format!("{} distinct values reviewed; numeric share {numeric_share:.2}", census.len());
    Ok(Step::Done(Outcome::Finding(Proposal {
        explanation: verdict.reasoning.clone(),
        op_reasoning: None,
        repair: Repair {
            issue: IssueKind::DisguisedMissing,
            column: Some(column.name.clone()),
            evidence,
            reasoning: verdict.reasoning,
            confidence: verdict.confidence,
        },
        mapping: tokens.into_iter().map(|token| (token, String::new())).collect(),
        compile: value_map_rule(column.name.clone()),
        subject: format!("DMV cleaning on {:?}", column.name),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Table, Value};

    fn with_dmvs() -> Table {
        let rows: Vec<Vec<String>> = vec![
            vec!["Austin".into()],
            vec!["N/A".into()],
            vec!["Dallas".into()],
            vec!["null".into()],
            vec!["-".into()],
        ];
        Table::from_text_rows(&["city"], &rows).unwrap()
    }

    #[test]
    fn dmvs_become_null() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(with_dmvs(), &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.ops[0].cells_changed, 3);
        assert_eq!(state.table.cell(1, 0).unwrap(), &Value::Null);
        assert_eq!(state.table.cell(3, 0).unwrap(), &Value::Null);
        assert_eq!(state.table.cell(4, 0).unwrap(), &Value::Null);
        assert_eq!(state.table.cell(0, 0).unwrap(), &Value::from("Austin"));
        assert!(state.ops[0].rendered_sql().contains("THEN NULL"));
    }

    #[test]
    fn sentinels_nulled_only_in_numeric_columns() {
        let rows: Vec<Vec<String>> = vec![
            vec!["10".into()],
            vec!["20".into()],
            vec!["30".into()],
            vec!["40".into()],
            vec!["9999".into()],
        ];
        let table = Table::from_text_rows(&["score"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.table.cell(4, 0).unwrap(), &Value::Null);
    }

    #[test]
    fn clean_column_untouched() {
        let rows: Vec<Vec<String>> = vec![vec!["Austin".into()], vec!["Dallas".into()]];
        let table = Table::from_text_rows(&["city"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table, table);
    }
}
