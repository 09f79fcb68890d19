//! §2.1.6 Functional Dependencies.
//!
//! Following Baran, only single-attribute FDs are considered. Statistical
//! detection ranks column pairs by conditional entropy; the LLM reviews
//! whether a statistically strong FD is *semantically* meaningful (the
//! Flights `flight → actual time` FD is the canonical rejection); for
//! meaningful FDs the LLM maps each violating group's wrong values to the
//! correct one, compiled to a group-scoped `CASE WHEN`.
//!
//! What each phase decodes (turns from census codes back into values) and
//! asks:
//!
//! * Statistics, before the detect phase: the stage fills the columns'
//!   censuses from the clean's census cache and scores every column pair,
//!   both on the stage pool. Scoring reads codes only; nothing is decoded.
//! * Detect phase (one prompt wave over the candidate pairs with
//!   violations on the stage-entry snapshot): the semantic FD review shows
//!   the model the first five violating groups, so only those five are
//!   decoded, and its group count is the candidate's.
//! * Decide phase (sequential, in candidate order): FD repairs can
//!   interact (one repair may fix — or create — another candidate's
//!   violations), so each candidate reads its groups off the live scan. A
//!   rejected candidate only counts them (its rejection is noted while any
//!   remain). A meaningful one decodes them all for its mapping prompt.
//!   Only FD repairs write during the stage, each to its own rhs column,
//!   so when a meaningful candidate reaches its mapping step with no
//!   answer in hand, it asks in one model call together with every later
//!   meaningful candidate whose lhs and rhs are the rhs of no meaningful
//!   candidate from the asking one up to that later one: the groups those
//!   later candidates decode now are exactly the groups they will read at
//!   their own turn, where each takes its stored answer. A debug assertion
//!   checks that rule at every such turn.
//!
//! Under a [`DecisionHook`](crate::DecisionHook) that rejects some
//! candidates and not others, a candidate asked ahead may spend its
//! mapping prompt before the hook rejects it; an auto-approving hook
//! spends nothing extra.
//!
//! One [`FdScan`] serves every phase: it reads the clean's column
//! censuses, and each applied repair hands it the census of the column it
//! rewrote, so the scan always describes the live table.

use crate::apply::{apply_and_count, column_rewrite_select};
use crate::decision::{CleaningReview, Decision, DetectionReview};
use crate::ops::{CleaningOp, Confidence, IssueKind};
use crate::state::{Answers, DetectCtx, Outcome, PipelineState, Step};
use cocoon_llm::{parse_cleaning_map, parse_fd_verdict, prompts, FdVerdict};
use cocoon_profile::{FdCandidate, FdScan};
use cocoon_sql::{render_select, Expr};
use cocoon_table::Value;

/// One violating group: `(lhs value, rhs census)`, census by descending count.
type Group = (Value, Vec<(Value, usize)>);

/// Rendered violating groups: `(lhs value, rhs census)` as prompt text.
type GroupsText = Vec<(String, Vec<(String, usize)>)>;

/// Violating groups the semantic FD review shows the model: the prompt and
/// its context block carry every group they are given.
const REVIEW_GROUPS: usize = 5;

struct Finding {
    lhs: usize,
    rhs: usize,
    lhs_name: String,
    rhs_name: String,
    strength: f64,
    /// Semantic review, asked on the snapshot's violating groups.
    verdict: FdVerdict,
}

/// A mapping prompt asked ahead of its candidate's turn: the groups it
/// showed, which are the candidate's groups at its turn, and the answer.
struct Mapped {
    groups: GroupsText,
    answer: crate::error::Result<String>,
}

fn degraded(err: &crate::error::CoreError) -> String {
    format!("FD repair degraded to statistical-only: {err}")
}

/// Runs FD review and repair over the whole table.
pub fn run(state: &mut PipelineState<'_>) {
    // One scan over the clean's column censuses, filled and scored on the
    // stage pool; each detection worker's group reads and the decide
    // phase's live groups reuse it. It shares the censuses, so it outlives
    // the detect phase's borrow of `state.table`.
    let mut scan = FdScan::from_censuses(state.detect_ctx().table_censuses());
    let mut candidates = scan.candidates(
        &state.pool,
        state.config.fd_min_strength,
        state.config.fd_max_unique_ratio,
    );
    // A candidate without violations has strength exactly 1, so it ranks
    // ahead of every candidate that could repair anything: no repair can
    // land before it is decided, and it has nothing to decide.
    candidates.retain(|candidate| candidate.violating_groups > 0);
    let outcomes = state.detect_waves(
        candidates,
        |ctx, candidate| start(ctx, &scan, candidate),
        |ctx, candidate, (), answers| resume(ctx, candidate, answers),
        |_, err| degraded(err),
    );
    // Mapping answers asked ahead of their candidate's turn, by outcome.
    let mut ahead: Vec<Option<Mapped>> = outcomes.iter().map(|_| None).collect();
    for (at, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Clean => {}
            Outcome::Note(note) => state.note(note.clone()),
            Outcome::Finding(finding) => {
                if let Err(err) = decide(state, &mut scan, finding, &outcomes, at, &mut ahead) {
                    state.note(degraded(&err));
                }
            }
        }
    }
}

fn render_group((lhs, census): &Group) -> (String, Vec<(String, usize)>) {
    (lhs.render(), census.iter().map(|(v, c)| (v.render(), *c)).collect())
}

/// Every violating group of `lhs → rhs`, decoded and rendered for the
/// mapping prompt.
fn all_groups(scan: &FdScan, lhs: usize, rhs: usize) -> GroupsText {
    scan.violating_groups(lhs, rhs, usize::MAX).iter().map(render_group).collect()
}

fn names(ctx: &DetectCtx<'_>, candidate: &FdCandidate) -> crate::error::Result<(String, String)> {
    let schema = ctx.table.schema();
    Ok((
        schema.field(candidate.lhs)?.name().to_string(),
        schema.field(candidate.rhs)?.name().to_string(),
    ))
}

/// Asks the semantic FD review. It shows the model the first
/// [`REVIEW_GROUPS`] violating groups, so only those are decoded, and the
/// group count it quotes is the candidate's.
fn start(
    ctx: &DetectCtx<'_>,
    scan: &FdScan,
    candidate: &FdCandidate,
) -> crate::error::Result<Step<(), Finding>> {
    let (lhs_name, rhs_name) = names(ctx, candidate)?;
    let head: GroupsText = scan
        .violating_groups(candidate.lhs, candidate.rhs, REVIEW_GROUPS)
        .iter()
        .map(render_group)
        .collect();
    let prompt = prompts::fd_review(
        &lhs_name,
        &rhs_name,
        candidate.strength,
        candidate.violating_groups,
        &head,
    );
    Ok(Step::ask((), prompt))
}

fn resume(
    ctx: &DetectCtx<'_>,
    candidate: &FdCandidate,
    mut answers: Answers,
) -> crate::error::Result<Step<(), Finding>> {
    let verdict = parse_fd_verdict(&answers.remove(0)?)?;
    let (lhs_name, rhs_name) = names(ctx, candidate)?;
    Ok(Step::Done(Outcome::Finding(Finding {
        lhs: candidate.lhs,
        rhs: candidate.rhs,
        lhs_name,
        rhs_name,
        strength: candidate.strength,
        verdict,
    })))
}

/// Asks the mapping prompt of `asking`, the finding at `outcomes[at]`
/// showing `groups`, in one model call with those of the later meaningful
/// candidates whose groups cannot change before their turn: neither their
/// lhs nor their rhs is the rhs of a meaningful candidate from `asking` up
/// to them, the only columns a repair can rewrite meanwhile. Each of them
/// with violations left asks now, and its groups and answer are stored in
/// `ahead` for its turn. Returns `asking`'s own answer.
fn ask_mappings(
    state: &PipelineState<'_>,
    scan: &FdScan,
    asking: &Finding,
    groups: &GroupsText,
    outcomes: &[Outcome<Finding>],
    at: usize,
    ahead: &mut [Option<Mapped>],
) -> crate::error::Result<String> {
    let mut prompts = vec![prompts::fd_mapping(&asking.lhs_name, &asking.rhs_name, groups)];
    let mut riders: Vec<(usize, GroupsText)> = Vec::new();
    let mut writable = vec![asking.rhs];
    for (later_at, outcome) in outcomes.iter().enumerate().skip(at + 1) {
        let Outcome::Finding(later) = outcome else { continue };
        if !later.verdict.meaningful {
            continue;
        }
        let settled = !writable.contains(&later.lhs) && !writable.contains(&later.rhs);
        if settled && ahead[later_at].is_none() {
            let groups = all_groups(scan, later.lhs, later.rhs);
            if !groups.is_empty() {
                prompts.push(prompts::fd_mapping(&later.lhs_name, &later.rhs_name, &groups));
                riders.push((later_at, groups));
            }
        }
        writable.push(later.rhs);
    }
    let mut answers = state.ask_all(prompts).into_iter();
    let own = answers.next().expect("one answer per prompt");
    for ((later_at, groups), answer) in riders.into_iter().zip(answers) {
        ahead[later_at] = Some(Mapped { groups, answer });
    }
    own
}

/// Reviews and (when approved) repairs the finding at `outcomes[at]`.
/// Returns whether a repair was applied to the table; an applied repair
/// re-codes its column in `scan` from the rewritten column's census,
/// keeping the scan live for the candidates after it.
fn decide(
    state: &mut PipelineState<'_>,
    scan: &mut FdScan,
    finding: &Finding,
    outcomes: &[Outcome<Finding>],
    at: usize,
    ahead: &mut [Option<Mapped>],
) -> crate::error::Result<bool> {
    let (lhs_name, rhs_name) = (finding.lhs_name.as_str(), finding.rhs_name.as_str());
    let FdVerdict { meaningful, reasoning, confidence: review_confidence } =
        finding.verdict.clone();
    if !meaningful {
        // An earlier repair may have removed the candidate's violations,
        // and then there is nothing to reject. Counting them decodes
        // nothing.
        if scan.violating_group_count(finding.lhs, finding.rhs) > 0 {
            state.note(format!(
                "FD {lhs_name} → {rhs_name} rejected as not semantically meaningful: {reasoning}"
            ));
        }
        return Ok(false);
    }
    let (groups_text, answer) = match ahead[at].take() {
        Some(Mapped { groups, answer }) => {
            debug_assert_eq!(
                groups,
                all_groups(scan, finding.lhs, finding.rhs),
                "FD {lhs_name} → {rhs_name} was asked ahead of a repair that changed its groups"
            );
            (groups, Some(answer))
        }
        None => (all_groups(scan, finding.lhs, finding.rhs), None),
    };
    if groups_text.is_empty() {
        return Ok(false);
    }
    let evidence =
        format!("entropy strength {:.3}; {} violating groups", finding.strength, groups_text.len());
    let detection = DetectionReview {
        issue: IssueKind::FunctionalDependency,
        column: Some(rhs_name),
        statistical_evidence: &evidence,
        llm_reasoning: &reasoning,
    };
    if state.hook.review_detection(&detection) == Decision::Reject {
        state.note(format!("FD {lhs_name} → {rhs_name} rejected by reviewer"));
        return Ok(false);
    }

    // Semantic cleaning: the LLM provides the correct mapping per group.
    let response = match answer {
        Some(answer) => answer?,
        None => ask_mappings(state, scan, finding, &groups_text, outcomes, at, ahead)?,
    };
    let map = parse_cleaning_map(&response)?;
    if map.mapping.is_empty() {
        return Ok(false);
    }
    // Compile group-scoped CASE arms: a pair (old → new) applies only inside
    // groups that contain `old` and whose plurality value is `new`. Literals
    // are parsed back into the column's declared type so repairs keep
    // working after a CAST step retyped the column.
    let lhs_type = state.table.schema().field(finding.lhs)?.data_type();
    let rhs_type = state.table.schema().field(finding.rhs)?.data_type();
    let typed = |raw: &str, ty: cocoon_table::DataType| -> Value {
        let text = Value::Text(raw.to_string());
        text.cast(ty).unwrap_or(text)
    };
    let mut arms: Vec<(Value, Value, Value)> = Vec::new();
    let mut pairs_for_review: Vec<(String, String)> = Vec::new();
    for (lhs_value, census) in &groups_text {
        let Some((top_value, _)) = census.first() else { continue };
        for (old, new) in &map.mapping {
            if new != top_value || old == new {
                continue;
            }
            if !census.iter().any(|(v, _)| v == old) {
                continue;
            }
            arms.push((typed(lhs_value, lhs_type), typed(old, rhs_type), typed(new, rhs_type)));
            pairs_for_review.push((old.clone(), new.clone()));
        }
    }
    if arms.is_empty() {
        return Ok(false);
    }
    let expr = Expr::pair_map(lhs_name, rhs_name, &arms);
    let select = column_rewrite_select(&state.table, rhs_name, expr);
    let preview = render_select(&select);
    let review = CleaningReview {
        issue: IssueKind::FunctionalDependency,
        column: Some(rhs_name),
        llm_explanation: &map.explanation,
        mapping: &pairs_for_review,
        sql_preview: &preview,
    };
    if state.hook.review_cleaning(&review) == Decision::Reject {
        state.note(format!("FD repair {lhs_name} → {rhs_name} rejected by reviewer"));
        return Ok(false);
    }
    let (table, changed) = apply_and_count(&select, &state.table)?;
    if changed == 0 {
        return Ok(false);
    }
    let confidence = match (review_confidence, map.confidence) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let applied = state.commit_op(
        table,
        CleaningOp {
            issue: IssueKind::FunctionalDependency,
            column: Some(rhs_name.to_string()),
            statistical_evidence: format!("{lhs_name} → {rhs_name}: {evidence}"),
            llm_reasoning: format!("{reasoning} {}", map.explanation),
            sql: select,
            cells_changed: changed,
            confidence: Confidence::self_reported(confidence),
        },
    );
    if applied {
        scan.recode(finding.rhs, state.detect_ctx().column_census(finding.rhs)?);
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::prompts::{parse_context, task};
    use cocoon_llm::{ChatModel, ChatRequest, ChatResponse, Json, SimLlm};
    use cocoon_table::Table;
    use std::sync::Mutex;

    fn hospital_like() -> Table {
        // zip → city holds across 10 zip groups except one typo and one
        // misplaced county value.
        let cities = [
            "birmingham",
            "dothan",
            "mobile",
            "huntsville",
            "montgomery",
            "tuscaloosa",
            "phoenix",
            "tucson",
            "austin",
            "dallas",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, city) in cities.iter().enumerate() {
            let zip = format!("35{:03}", i);
            for _ in 0..8 {
                rows.push(vec![zip.clone(), (*city).into()]);
            }
        }
        rows[1][1] = "birminghxm".into(); // typo in the birmingham group
        rows[9][1] = "jefferson".into(); // misplaced county in the dothan group
        Table::from_text_rows(&["zip_code", "city"], &rows).unwrap()
    }

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>, Vec<String>) {
        run_with(table, &SimLlm::new())
    }

    fn run_with(table: Table, llm: &dyn ChatModel) -> (Table, Vec<CleaningOp>, Vec<String>) {
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops, state.notes)
    }

    /// `SimLlm` that records, for each model call asking mapping prompts,
    /// the `lhs → rhs` of every one of them.
    #[derive(Default)]
    struct MappingCalls(Mutex<Vec<Vec<String>>>);

    impl ChatModel for MappingCalls {
        fn model_name(&self) -> &str {
            "mapping-calls"
        }

        fn complete_batch(
            &self,
            requests: &[ChatRequest],
        ) -> Vec<cocoon_llm::Result<ChatResponse>> {
            let mappings: Vec<String> = requests
                .iter()
                .filter_map(|request| {
                    let context = parse_context(&request.user_text())?;
                    let field = |key: &str| context.get(key).and_then(Json::as_str);
                    let fd = format!("{} → {}", field("lhs")?, field("rhs")?);
                    (field("task")? == task::FD_MAPPING).then_some(fd)
                })
                .collect();
            if !mappings.is_empty() {
                self.0.lock().unwrap().push(mappings);
            }
            SimLlm::new().complete_batch(requests)
        }
    }

    #[test]
    fn zip_city_fd_repaired_by_majority() {
        let (cleaned, ops, _) = run_on(hospital_like());
        assert!(!ops.is_empty());
        let city = cleaned.column_by_name("city").unwrap();
        assert!(!city
            .values()
            .iter()
            .any(|v| { matches!(v.as_text(), Some("birminghxm") | Some("jefferson")) }));
        assert_eq!(cleaned.render_cell(1, 1).unwrap(), "birmingham");
        assert_eq!(cleaned.render_cell(9, 1).unwrap(), "dothan");
        let op = &ops[0];
        assert_eq!(op.issue, IssueKind::FunctionalDependency);
        assert_eq!(op.cells_changed, 2);
        assert!(op.rendered_sql().contains("zip_code ="));
    }

    /// title → journal_abbreviation → region over 10 journals × 8 rows.
    /// Row 1 carries an abbreviation typo and a wrong region; the region
    /// conflicts with its journal's only once the typo is repaired. With
    /// `region_typo`, row 9 adds a region conflict the snapshot already has.
    fn journals(region_typo: bool) -> Table {
        let regions = [
            "europe", "europe", "europe", "europe", "asia", "asia", "asia", "america", "america",
            "america",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (j, region) in regions.iter().enumerate() {
            for _ in 0..8 {
                rows.push(vec![format!("journal {j}"), format!("J{j}"), (*region).into()]);
            }
        }
        rows[1][1] = "J0x".into();
        rows[1][2] = "asia".into();
        if region_typo {
            rows[9][2] = "europx".into();
        }
        Table::from_text_rows(&["title", "journal_abbreviation", "region"], &rows).unwrap()
    }

    #[test]
    fn earlier_repair_changes_later_candidates_groups() {
        // The stronger title → journal_abbreviation FD repairs row 1's typo
        // first. journal_abbreviation → region must then read its groups
        // from the live table, where row 1's region conflicts inside J0.
        let llm = MappingCalls::default();
        let (cleaned, ops, _) = run_with(journals(true), &llm);
        assert_eq!(cleaned.render_cell(1, 1).unwrap(), "J0");
        assert_eq!(cleaned.render_cell(1, 2).unwrap(), "europe");
        assert_eq!(cleaned.render_cell(9, 2).unwrap(), "europe");
        let columns: Vec<&str> = ops.iter().filter_map(|op| op.column.as_deref()).collect();
        assert_eq!(columns, ["journal_abbreviation", "region"]);
        assert!(ops[1].statistical_evidence.ends_with("; 2 violating groups"));
        // So its mapping cannot ride the first mapping call: it asks in a
        // second one, after the repair of the column it reads.
        let calls = llm.0.into_inner().unwrap();
        let asked_in = |fd: &str| calls.iter().position(|call| call.iter().any(|m| m == fd));
        assert_eq!(asked_in("title → journal_abbreviation"), Some(0), "{calls:?}");
        assert_eq!(asked_in("journal_abbreviation → region"), Some(1), "{calls:?}");
    }

    #[test]
    fn actual_time_fd_rejected() {
        // flight → actual_arrival is statistically strong but semantically
        // rejected (the paper's Flights analysis).
        let mut rows: Vec<Vec<String>> = Vec::new();
        // 20 flights, each with a consistent time except two flights whose
        // actual arrival varies by a minute — statistically a strong FD.
        for f in 0..20 {
            let time = format!("{}:{:02} p.m.", (f % 11) + 1, f * 2);
            for _ in 0..6 {
                rows.push(vec![format!("AA-{f}"), time.clone()]);
            }
        }
        rows[1][1] = "10:31 p.m.".into();
        rows[7][1] = "10:39 p.m.".into();
        let table = Table::from_text_rows(&["flight", "actual_arrival_time"], &rows).unwrap();
        let (cleaned, ops, notes) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
        assert!(notes.iter().any(|n| n.contains("rejected as not semantically meaningful")));
    }

    #[test]
    fn consistent_fd_no_op() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "a".into()],
            vec!["1".into(), "a".into()],
            vec!["2".into(), "b".into()],
            vec!["2".into(), "b".into()],
        ];
        let table = Table::from_text_rows(&["code", "name"], &rows).unwrap();
        let (_, ops, _) = run_on(table);
        assert!(ops.is_empty());
    }

    #[test]
    fn ambiguous_group_left_alone() {
        // Two rhs values with equal support and no typo relation: the
        // mapping skips the group.
        let rows: Vec<Vec<String>> = vec![
            vec!["z1".into(), "alpha".into()],
            vec!["z1".into(), "omega".into()],
            vec!["z1".into(), "alpha".into()],
            vec!["z1".into(), "omega".into()],
            vec!["z2".into(), "beta".into()],
            vec!["z2".into(), "beta".into()],
        ];
        let table = Table::from_text_rows(&["zone_code", "name"], &rows).unwrap();
        let (cleaned, ops, _) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
    }
}
