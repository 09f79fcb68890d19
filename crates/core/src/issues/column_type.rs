//! §2.1.4 Column Type.
//!
//! Statistical detection reads the declared catalog type and the parse
//! census; the LLM suggests the semantically right type ("yes"/"no" ⇒
//! BOOLEAN); cleaning is a `CAST` — preceded, for numeric targets with
//! non-numeric spellings ("1 hr. 30 min."), by a semantic value map
//! (Appendix B).
//!
//! Detect phase (prompt waves over the text columns): type prompt in the
//! first wave; for numeric verdicts whose census holds non-numeric
//! spellings, the numeric-conversion map prompt in the second. Decide phase
//! (sequential): hook review → cast compile → apply with the
//! destructive-cast guard.

use crate::apply::{apply_and_count, column_rewrite_select, mapping_to_values, restrict_mapping};
use crate::ops::IssueKind;
use crate::state::{weakest, Answers, Column, DetectCtx, Outcome, PipelineState, Repair, Step};
use cocoon_llm::{parse_cleaning_map, parse_type_verdict, prompts};
use cocoon_sql::Expr;
use cocoon_table::{infer_from_distinct, DataType};

struct Finding {
    repair: Repair,
    target: DataType,
    /// Semantic numeric-conversion map ("1 hr. 30 min." → "90"), prefetched
    /// for numeric targets whose census holds non-parsing values.
    conversion_mapping: Vec<(String, String)>,
    conversion_reasoning: String,
}

/// What a column waits on: the type verdict (holding the statistical
/// evidence), then the conversion map (holding the finding it completes
/// and the values it was asked about).
enum Asked {
    Verdict(String),
    Conversion(Finding, Vec<(String, usize)>),
}

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("column-type review on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs column-type review and casting over every text column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|ty| ty == DataType::Text);
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, decide, degraded);
}

fn start(ctx: &DetectCtx<'_>, column: &Column) -> crate::error::Result<Step<Asked, Finding>> {
    let census = ctx.census(column.index, 50);
    if census.is_empty() {
        return Ok(Step::clean());
    }
    let inference =
        infer_from_distinct(ctx.column_census(column.index)?.distinct(), ctx.config.type_tolerance);
    let declared = ctx.table.schema().field(column.index)?.data_type();
    let prompt = prompts::column_type(
        &column.name,
        declared.sql_name(),
        inference.data_type.sql_name(),
        inference.confidence,
        &census,
    );
    let evidence = format!(
        "declared {}, inferred {} at {:.0}% confidence",
        declared.sql_name(),
        inference.data_type.sql_name(),
        inference.confidence * 100.0
    );
    Ok(Step::ask(Asked::Verdict(evidence), prompt))
}

fn resume(
    ctx: &DetectCtx<'_>,
    column: &Column,
    asked: Asked,
    mut answers: Answers,
) -> crate::error::Result<Step<Asked, Finding>> {
    let response = answers.remove(0)?;
    match asked {
        Asked::Verdict(evidence) => review(ctx, column, evidence, &response),
        Asked::Conversion(mut finding, failing) => {
            let map = parse_cleaning_map(&response)?;
            finding.conversion_mapping = restrict_mapping(&map.mapping, &failing);
            if !finding.conversion_mapping.is_empty() {
                finding.conversion_reasoning = map.explanation;
                finding.repair.confidence = weakest(finding.repair.confidence, map.confidence);
            }
            Ok(Step::Done(Outcome::Finding(finding)))
        }
    }
}

/// Reads the type verdict. A numeric target whose census holds values that
/// do not parse as numbers asks for the conversion map next.
fn review(
    ctx: &DetectCtx<'_>,
    column: &Column,
    evidence: String,
    response: &str,
) -> crate::error::Result<Step<Asked, Finding>> {
    let verdict = parse_type_verdict(response)?;
    let Some(target) = DataType::from_sql_name(&verdict.type_name) else {
        return Ok(Step::Done(Outcome::Note(format!(
            "column-type review on {:?} suggested unknown type {:?}",
            column.name, verdict.type_name
        ))));
    };
    if target == DataType::Text {
        return Ok(Step::clean());
    }
    let finding = Finding {
        repair: Repair {
            issue: IssueKind::ColumnType,
            column: Some(column.name.clone()),
            evidence,
            reasoning: verdict.reasoning,
            confidence: verdict.confidence,
        },
        target,
        conversion_mapping: Vec::new(),
        conversion_reasoning: String::new(),
    };
    if target.is_numeric() {
        // Values that don't parse as numbers first get a semantic
        // numeric-conversion map (Appendix B: "1 hr. 30 min." → 90). The
        // map must cover the column's full distinct census — the 50-value
        // sample shown in the type prompt is not enough to cast every cell.
        let failing: Vec<(String, usize)> = ctx
            .census(column.index, ctx.config.sample_size)
            .into_iter()
            .filter(|(v, _)| v.trim().parse::<f64>().is_err())
            .collect();
        if !failing.is_empty() {
            let prompt = prompts::numeric_conversion(&column.name, &failing);
            return Ok(Step::ask(Asked::Conversion(finding, failing), prompt));
        }
    }
    Ok(Step::Done(Outcome::Finding(finding)))
}

fn decide(
    state: &mut PipelineState<'_>,
    column: &Column,
    Finding { mut repair, target, conversion_mapping, conversion_reasoning }: Finding,
) -> crate::error::Result<()> {
    let (index, column) = (column.index, column.name.as_str());
    if !state.detection_approved(&repair, &format!("column-type cast on {column:?}")) {
        return Ok(());
    }

    let inner = if conversion_mapping.is_empty() {
        Expr::col(column)
    } else {
        Expr::Case {
            operand: Some(Box::new(Expr::col(column))),
            arms: mapping_to_values(&conversion_mapping)
                .into_iter()
                .map(|(old, new)| (Expr::Literal(old), Expr::Literal(new)))
                .collect(),
            otherwise: Some(Box::new(Expr::col(column))),
        }
    };
    let expr = Expr::try_cast(inner, target);
    let select = column_rewrite_select(&state.table, column, expr);
    let (table, changed) = apply_and_count(&select, &state.table)?;
    // A cast that empties the column means the suggestion was wrong; the
    // human-in-the-loop would reject it, and so do we.
    let nulls_before = state.table.column(index)?.null_count();
    let nulls_after = table.column(index)?.null_count();
    let non_null_before = state.table.height() - nulls_before;
    if non_null_before > 0 {
        let lost = nulls_after.saturating_sub(nulls_before);
        if lost * 2 > non_null_before {
            state.note(format!(
                "cast of {column:?} to {} abandoned: it would null {lost}/{non_null_before} values",
                target.sql_name()
            ));
            return Ok(());
        }
    }
    repair.reasoning = format!("{} {conversion_reasoning}", repair.reasoning).trim().to_string();
    state.commit_op(table, repair.into_op(select, changed));
    Ok(())
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
    fn yes_no_becomes_boolean() {
        let rows: Vec<Vec<String>> =
            vec![vec!["yes".into()], vec!["no".into()], vec!["yes".into()]];
        let table = Table::from_text_rows(&["EmergencyService"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Bool);
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Bool(true));
        assert_eq!(cleaned.render_cell(0, 0).unwrap(), "True");
        assert!(ops[0].rendered_sql().contains("TRY_CAST"));
    }

    #[test]
    fn durations_convert_then_cast() {
        let rows: Vec<Vec<String>> =
            vec![vec!["90 min".into()], vec!["1 hr. 30 min.".into()], vec!["100 min".into()]];
        let table = Table::from_text_rows(&["duration"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Float);
        // Appendix B: both spellings become the float 90.
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Float(90.0));
        assert_eq!(cleaned.cell(1, 0).unwrap(), &Value::Float(90.0));
        assert_eq!(cleaned.cell(2, 0).unwrap(), &Value::Float(100.0));
    }

    #[test]
    fn integer_column_cast() {
        let rows: Vec<Vec<String>> = (1..=20).map(|i| vec![i.to_string()]).collect();
        let table = Table::from_text_rows(&["count"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn free_text_stays_text() {
        let rows: Vec<Vec<String>> = vec![vec!["alice".into()], vec!["bob".into()]];
        let table = Table::from_text_rows(&["name"], &rows).unwrap();
        let (cleaned, ops) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
    }

    #[test]
    fn zip_codes_stay_text() {
        let rows: Vec<Vec<String>> = vec![vec!["35233".into()], vec!["02139".into()]];
        let table = Table::from_text_rows(&["zip_code"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert!(ops.is_empty());
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Text);
    }

    #[test]
    fn destructive_cast_abandoned() {
        // A (scripted) model wrongly suggests BIGINT for free text; the
        // cast would null most values, so the pipeline abandons it.
        use cocoon_llm::ScriptedLlm;
        let rows: Vec<Vec<String>> =
            vec![vec!["hello".into()], vec!["world".into()], vec!["7".into()]];
        let table = Table::from_text_rows(&["stuff"], &rows).unwrap();
        let llm = ScriptedLlm::new([
            r#"{"Reasoning": "looks numeric", "Type": "BIGINT"}"#,
            "```yml\nexplanation: >\n  nothing converts\nmapping:\n```\n",
        ]);
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert!(state.notes.iter().any(|n| n.contains("abandoned")));
        assert_eq!(state.table, table);
    }
}
