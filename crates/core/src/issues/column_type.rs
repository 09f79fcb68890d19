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
//! spellings, the numeric-conversion map prompt in the second. The
//! proposal's mapping is that conversion map, and its statement the
//! `TRY_CAST` of the mapped column. A cast that would null most of the
//! column's values means the suggestion was wrong; the human-in-the-loop
//! would reject it, and detection abandons it, counting the loss on the
//! column's census.

use crate::apply::{column_rewrite_select, mapping_to_values, restrict_mapping};
use crate::ops::IssueKind;
use crate::state::{
    weakest, Answers, Column, Compile, DetectCtx, Outcome, PipelineState, Proposal, Repair, Step,
};
use cocoon_llm::{parse_cleaning_map, parse_type_verdict, prompts};
use cocoon_profile::ColumnCensus;
use cocoon_sql::Expr;
use cocoon_table::{infer_from_distinct, DataType, Value};
use std::collections::HashMap;

/// What a column waits on: the type verdict (holding the statistical
/// evidence), then the conversion map (holding the cast it completes, its
/// target and the values it was asked about).
enum Asked {
    Verdict(String),
    Conversion(Box<Proposal>, DataType, Vec<(String, usize)>),
}

fn degraded(column: &Column, err: &crate::error::CoreError) -> String {
    format!("column-type review on {:?} degraded to statistical-only: {err}", column.name)
}

/// Runs column-type review and casting over every text column.
pub(crate) fn run(state: &mut PipelineState<'_>) {
    let columns = state.columns(|ty| ty == DataType::Text);
    let outcomes = state.detect_waves(&columns, start, resume, degraded);
    state.decide_outcomes(&columns, outcomes, degraded);
}

fn start(ctx: &DetectCtx<'_>, column: &Column) -> crate::error::Result<Step<Asked, Proposal>> {
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
) -> crate::error::Result<Step<Asked, Proposal>> {
    let response = answers.remove(0)?;
    match asked {
        Asked::Verdict(evidence) => review(ctx, column, evidence, &response),
        Asked::Conversion(mut proposal, target, failing) => {
            let map = parse_cleaning_map(&response)?;
            proposal.mapping = restrict_mapping(&map.mapping, &failing);
            if !proposal.mapping.is_empty() {
                proposal.explanation = map.explanation;
                proposal.repair.confidence = weakest(proposal.repair.confidence, map.confidence);
            }
            conclude(ctx, column, *proposal, target)
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
) -> crate::error::Result<Step<Asked, Proposal>> {
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
    let proposal = Proposal {
        explanation: verdict.reasoning.clone(),
        op_reasoning: None,
        repair: Repair {
            issue: IssueKind::ColumnType,
            column: Some(column.name.clone()),
            evidence,
            reasoning: verdict.reasoning,
            confidence: verdict.confidence,
        },
        mapping: Vec::new(),
        compile: cast_rule(column.name.clone(), target),
        subject: format!("column-type cast on {:?}", column.name),
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
            return Ok(Step::ask(Asked::Conversion(Box::new(proposal), target, failing), prompt));
        }
    }
    conclude(ctx, column, proposal, target)
}

/// The rule that compiles a cast of `column` to `target`: `TRY_CAST` of
/// the column, through the conversion map's `CASE` when it has one.
fn cast_rule(column: String, target: DataType) -> Compile {
    Box::new(move |table, mapping| {
        let mapped = match mapping {
            [] => Expr::col(&column),
            _ => Expr::Case {
                operand: Some(Box::new(Expr::col(&column))),
                arms: mapping_to_values(mapping)
                    .into_iter()
                    .map(|(old, new)| (Expr::Literal(old), Expr::Literal(new)))
                    .collect(),
                otherwise: Some(Box::new(Expr::col(&column))),
            },
        };
        column_rewrite_select(table, &column, Expr::try_cast(mapped, target))
    })
}

/// Concludes a cast to `target`: abandoned, with a note, when it would
/// null more than half of the column's values; else proposed, its op's
/// reasoning the verdict's followed by the conversion map's explanation.
fn conclude(
    ctx: &DetectCtx<'_>,
    column: &Column,
    mut proposal: Proposal,
    target: DataType,
) -> crate::error::Result<Step<Asked, Proposal>> {
    let census = ctx.column_census(column.index)?;
    let values = census.rows() - census.null_count();
    let lost = cells_nulled(&census, &proposal.mapping, target);
    if lost * 2 > values {
        return Ok(Step::Done(Outcome::Note(format!(
            "cast of {:?} to {} abandoned: it would null {lost}/{values} values",
            column.name,
            target.sql_name()
        ))));
    }
    let conversion = if proposal.mapping.is_empty() { "" } else { &proposal.explanation };
    let reasoning = format!("{} {conversion}", proposal.repair.reasoning);
    proposal.op_reasoning = Some(reasoning.trim().to_string());
    Ok(Step::Done(Outcome::Finding(proposal)))
}

/// The non-NULL cells the proposed statement would null: each distinct
/// value of `census` that `mapping` ("" = NULL) sends to NULL or to a value
/// that does not cast to `target`, times its count. The `CASE` takes the
/// first arm whose old value equals the cell, and `TRY_CAST` nulls what
/// does not cast, so this is the count of NULLs the applied statement adds.
fn cells_nulled(census: &ColumnCensus, mapping: &[(String, String)], target: DataType) -> usize {
    let mut mapped: HashMap<Value, Value> = HashMap::new();
    for (old, new) in mapping_to_values(mapping) {
        mapped.entry(old).or_insert(new);
    }
    census
        .distinct()
        .iter()
        .filter(|(value, _)| {
            let cell = mapped.get(value).unwrap_or(value);
            cell.cast(target).map_or(true, |cast| cast.is_null())
        })
        .map(|(_, count)| count)
        .sum()
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
    fn census_loss_is_the_nulls_the_applied_cast_adds() {
        use cocoon_table::{Column as TableColumn, Schema};
        // NULL cells, numbers, spellings the map converts (one to NULL, one
        // to a word, one under two arms), spellings it misses, and more
        // distinct values than the map prompt's sample.
        let sample_size = CleanerConfig::default().sample_size;
        let mut cells = vec![Value::Null, Value::Null];
        cells.extend((0..sample_size + 200).map(|i| Value::from(format!("{}", i % 700))));
        cells.extend((0..sample_size).map(|i| Value::from(format!("{i} min"))));
        for spelling in ["1 hr. 30 min.", "n/a", "several", "yes", "no", "2020-01-02", "1.5"] {
            cells.extend([Value::from(spelling), Value::from(spelling), Value::Null]);
        }
        let column = TableColumn::new(cells);
        let table = Table::new(Schema::all_text(&["c"]).unwrap(), vec![column.clone()]).unwrap();
        let census = ColumnCensus::of(&column);
        assert!(census.distinct().len() > sample_size);
        let pair = |old: &str, new: &str| (old.to_string(), new.to_string());
        let mappings = [
            vec![],
            vec![pair("1 hr. 30 min.", "90"), pair("n/a", ""), pair("several", "many")],
            vec![pair("5 min", "5"), pair("5 min", "x"), pair("7 min", "7"), pair("absent", "1")],
            vec![pair("yes", "true"), pair("no", "0"), pair("1.5", "2020-02-03")],
        ];
        let targets = [DataType::Int, DataType::Float, DataType::Bool, DataType::Date];
        for mapping in &mappings {
            for target in targets {
                let select = cast_rule("c".into(), target)(&table, mapping);
                let cast = cocoon_sql::execute(&select, &table).unwrap();
                let added = cast.column(0).unwrap().null_count() - column.null_count();
                assert_eq!(
                    cells_nulled(&census, mapping, target),
                    added,
                    "{mapping:?} to {target:?}"
                );
            }
        }
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
